// FlatStore-style baseline (Chen et al., ASPLOS'20) — reimplemented from the
// paper's description, as the original is closed source (the CCL-BTree
// authors did the same). A log-structured KV store for PM:
//   * every write appends a record to a per-thread sequential PM log, so
//     consecutive records share XPLines and XBI-amplification is minimal;
//   * a volatile index maps keys to their latest log position;
//   * range queries are the weakness: logically-adjacent keys live at random
//     log positions, so a scan performs one random PM read per KV (paper
//     §2.3 / Fig. 5 / Table 3).
// Simplifications: the volatile index is an ordered map under a
// readers-writer lock (FlatStore uses a hash index + lock-free lists; the
// virtual-time model is agnostic), and log compaction is not modeled (it
// does not participate in any reproduced experiment).
#ifndef SRC_BASELINES_FLATSTORE_H_
#define SRC_BASELINES_FLATSTORE_H_

#include <map>
#include <memory>
#include "src/common/lock.h"
#include <vector>

#include "src/kvindex/kv_index.h"
#include "src/kvindex/runtime.h"
#include "src/pmem/slab_allocator.h"

namespace cclbt::baselines {

class FlatStore : public kvindex::KvIndex {
 public:
  explicit FlatStore(kvindex::Runtime& runtime);
  ~FlatStore() override;

  void Upsert(uint64_t key, uint64_t value) override;
  bool Lookup(uint64_t key, uint64_t* value_out) override;
  bool Remove(uint64_t key) override;
  size_t Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) override;
  const char* name() const override { return "FlatStore"; }
  kvindex::MemoryFootprint Footprint() const override;

 private:
  struct Record {  // 24 B PM log record
    uint64_t key;
    uint64_t value;
    uint64_t meta;  // kRecordValid | tombstone flag in bit 0
  };

  // Every written record carries this marker so a record is distinguishable
  // from zeroed log space by its own bytes, not just a nonzero key. It also
  // means a record tail spilling across a cacheline boundary never equals
  // the fresh line's durable zeros: before the marker, pmcheck correctly
  // flagged every 8th append (lcm(24 B record, 64 B line)) as flushing a
  // line whose only written byte was a zero meta word — a flush that
  // persisted nothing.
  static constexpr uint64_t kRecordValid = 2;
  // A log chunk: the one slot of a one-slot chunk of the log slab.
  static constexpr size_t kLogChunkBytes = 4 * 1024 * 1024;

  struct ThreadLog {
    std::byte* chunk = nullptr;
    size_t cursor = 0;
  };

  const Record* Append(uint64_t key, uint64_t value, bool tombstone);

  kvindex::Runtime& rt_;
  std::unique_ptr<pmem::SlabAllocator> log_slab_;
  std::vector<ThreadLog> logs_;  // per worker id
  sync::Mutex logs_mu_{"bl.flatstore_logs"};  // guards chunk activation only

  mutable sync::SharedMutex mu_{"bl.flatstore"};
  std::map<uint64_t, const Record*> index_;
};

}  // namespace cclbt::baselines

#endif  // SRC_BASELINES_FLATSTORE_H_
