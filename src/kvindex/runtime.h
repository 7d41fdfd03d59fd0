// Shared runtime for all indexes: the simulated device, the PM pool, the
// out-of-band value store and the ORDO clock. One Runtime per experiment so
// every index under comparison sees identical hardware.
#ifndef SRC_KVINDEX_RUNTIME_H_
#define SRC_KVINDEX_RUNTIME_H_

#include <memory>
#include <string>

#include "src/common/ordo.h"
#include "src/pmem/pool.h"
#include "src/pmem/value_store.h"
#include "src/pmsim/device.h"

namespace cclbt::kvindex {

struct RuntimeOptions {
  pmsim::DeviceConfig device;
};

class Runtime {
 public:
  explicit Runtime(const RuntimeOptions& options)
      : options_(options), device_(options.device) {
    // Pool formatting needs a thread context for its persist calls.
    pmsim::ThreadContext boot_ctx(device_, /*socket=*/0);
    pool_ = pmem::PmPool::Create(device_);
    values_ = std::make_unique<pmem::ValueStore>(*pool_);
  }

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Simulated machine restart: re-attaches to the surviving device media via
  // PmPool::Open (superblock validation included) instead of reformatting,
  // and restarts the ORDO clock. An index whose timestamps must order after
  // pre-crash ones persists its own floor (the CCL indexes' root-record ts_floor).
  // Typically called after PmDevice::Crash()/CrashTorn(). On validation
  // failure returns false, fills `error_out` with the structured diagnostic
  // message, and leaves the previous pool/value-store handles in place.
  bool Reopen(std::string* error_out = nullptr) {
    pmsim::ThreadContext boot_ctx(device_, /*socket=*/0);
    pmem::PoolOpenError error;
    auto pool = pmem::PmPool::Open(device_, &error);
    if (pool == nullptr) {
      if (error_out != nullptr) {
        *error_out = error.message;
      }
      return false;
    }
    pool_ = std::move(pool);
    // The value store's volatile region cursors restart; blobs referenced by
    // surviving indirection handles stay readable through pool offsets, at
    // the cost of leaking the unused remainder of pre-crash regions (bounded
    // by one region per socket per restart). The leak is counted: the dying
    // store's unused reservation carries into the new store's leaked_bytes()
    // so repeated crash-recover cycles show monotone growth in the
    // value-store gauges (pmctl top/series) instead of vanishing silently.
    uint64_t leaked = values_->leaked_bytes() + values_->unused_reserved_bytes();
    values_ = std::make_unique<pmem::ValueStore>(*pool_, leaked);
    ordo_.Restart();
    return true;
  }

  pmsim::PmDevice& device() { return device_; }
  // Resolved persistence-domain backend of the device (DESIGN.md §14); the
  // options' kAuto has been resolved by device construction.
  pmsim::MediaBackend media_backend() const { return device_.config().backend; }
  pmem::PmPool& pool() { return *pool_; }
  pmem::ValueStore& values() { return *values_; }
  OrdoClock& ordo() { return ordo_; }
  const RuntimeOptions& options() const { return options_; }

  // Socket for a worker index. Fill-first, socket 0's cores before socket
  // 1's, mirroring the paper's pthread_setaffinity_np pinning on a 2x48-way
  // box, at DeviceConfig::cores_per_socket cores per socket, or at the
  // caller's `default_per_socket` when the device leaves it 0. When both are
  // 0, place workers round-robin across sockets so small-worker-count runs
  // still exercise the configured topology instead of piling every worker
  // onto socket 0 behind a 48-core fill threshold they never cross.
  int SocketForWorker(int worker, int default_per_socket = 0) const {
    int num_sockets = device_.config().num_sockets;
    int per_socket = device_.config().cores_per_socket;
    if (per_socket <= 0) {
      per_socket = default_per_socket;
    }
    if (per_socket <= 0) {
      return worker % num_sockets;
    }
    return (worker / per_socket) % num_sockets;
  }

 private:
  RuntimeOptions options_;
  pmsim::PmDevice device_;
  OrdoClock ordo_;
  std::unique_ptr<pmem::PmPool> pool_;
  std::unique_ptr<pmem::ValueStore> values_;
};

}  // namespace cclbt::kvindex

#endif  // SRC_KVINDEX_RUNTIME_H_
