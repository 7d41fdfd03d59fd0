// PM pool management on top of the simulated device.
//
// The pool owns a small persistent superblock at offset 0 holding per-socket
// bump pointers and eight application root slots (a real PMDK-style pool
// header). All pool allocations are chunk-granular (allocators below carve
// fine-grained objects out of chunks), so persisting the bump pointer per
// allocation is cheap.
#ifndef SRC_PMEM_POOL_H_
#define SRC_PMEM_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/lock.h"
#include "src/pmsim/device.h"

namespace cclbt::pmem {

inline constexpr uint64_t kPoolMagic = 0xCC1B7EEE2024ULL;
inline constexpr uint64_t kPoolFormatVersion = 1;
inline constexpr int kMaxSockets = 8;
inline constexpr int kNumAppRoots = 8;
inline constexpr size_t kSuperblockBytes = 4096;

// Persistent pool header (lives at device offset 0).
//
// Crash-safety of the validation split: the checksum covers only the fields
// written once at format time (magic/version/geometry). The mutable fields
// (bump_offset, app_root) are each updated with a single 8-byte persist and
// rely on cacheline write atomicity; folding them into a checksum would
// falsely report corruption after any crash between a field persist and the
// checksum persist. They are instead sanity-checked structurally on Open.
struct PoolRoot {
  uint64_t magic;
  uint64_t format_version;
  uint64_t pool_bytes;       // geometry recorded at format time
  uint64_t num_sockets;
  uint64_t header_checksum;  // Mix64 fold of the four fields above
  uint64_t bump_offset[kMaxSockets];  // next free offset per socket region
  uint64_t app_root[kNumAppRoots];    // application-owned offsets (0 == unset)
};
static_assert(sizeof(PoolRoot) <= kSuperblockBytes);

// Structured diagnostic from PmPool::Open superblock validation. `message`
// is human-readable and safe to surface directly (Runtime::Reopen does).
struct PoolOpenError {
  enum class Code {
    kNone,
    kBadMagic,          // not a formatted pool (or magic corrupted)
    kBadVersion,        // formatted by an incompatible layout version
    kBadChecksum,       // immutable header fields corrupted
    kGeometryMismatch,  // device geometry differs from format-time geometry
    kCorruptBump,       // a bump pointer points outside its socket region
  };
  Code code = Code::kNone;
  std::string message;
};

class PmPool {
 public:
  // Formats a fresh pool (Create) or attaches to an existing one (Open —
  // used by recovery paths to simulate a post-restart re-open). Open
  // validates the superblock; on failure it returns nullptr and, when
  // `error` is non-null, fills in the structured diagnostic.
  static std::unique_ptr<PmPool> Create(pmsim::PmDevice& device);
  static std::unique_ptr<PmPool> Open(pmsim::PmDevice& device, PoolOpenError* error = nullptr);

  PmPool(const PmPool&) = delete;
  PmPool& operator=(const PmPool&) = delete;

  pmsim::PmDevice& device() const { return *device_; }

  // Allocates `bytes` from `socket`'s region, 256 B aligned; nullptr when the
  // region is exhausted. Media writes to the range are charged to the
  // TraceScope of the code that persists them.
  void* AllocateRaw(size_t bytes, int socket);

  // Offset <-> pointer helpers (PM data structures store offsets, never raw
  // pointers, so a re-open at a different base address stays valid).
  uint64_t ToOffset(const void* addr) const { return device_->OffsetOf(addr); }
  void* ToAddr(uint64_t offset) const { return device_->AddrOf(offset); }
  // Whether [offset, offset + bytes) lies wholly inside the pool, past the
  // superblock, where every allocation lives. Recovery checks each offset it
  // reads from a pool image with this before it follows it.
  bool Holds(uint64_t offset, uint64_t bytes) const {
    const uint64_t end = device_->config().pool_bytes;
    return offset >= kSuperblockBytes && offset <= end && bytes <= end - offset;
  }

  // Application root slots: persistent named entry points for recovery.
  uint64_t GetAppRoot(int slot) const;
  void SetAppRoot(int slot, uint64_t offset);

  // Total bytes handed out (PM consumption accounting, Figure 18).
  uint64_t AllocatedBytes() const;

 private:
  explicit PmPool(pmsim::PmDevice& device);

  PoolRoot* root() const { return reinterpret_cast<PoolRoot*>(device_->base()); }

  pmsim::PmDevice* device_;
  // Serializes bump-pointer advances; the superblock fields it covers live in
  // PM (reached via root()), so there is no GUARDED_BY-able member here.
  sync::Mutex mu_{"pmem.pool"};
};

}  // namespace cclbt::pmem

#endif  // SRC_PMEM_POOL_H_
