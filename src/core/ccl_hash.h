// CCL-Hash: the paper's §6 extension sketch, implemented. "In the persistent
// hash tables (e.g., CCEH, CLevel), we can introduce a buffer node for one
// or multiple buckets to batch the updates to them, and use the
// write-conservative logging and locality-aware GC to ensure crash
// consistency with reduced write amplification."
//
// Structure:
//   directory     DRAM   fixed array of buffer nodes, one per bucket chain
//   buckets       PM     256 B (one XPLine), same layout as a tree leaf
//                        (bitmap + fingerprints + timestamp + 14 unsorted
//                        KV slots); overflow buckets chain via the next
//                        pointer (CCEH-stash style)
//   WALs          PM     per-thread, write-conservative (trigger writes are
//                        not logged)
//   GC            locality-aware B-log/I-log epoch flip
//
// It runs on CCL-BTree's machinery: the same TreeOptions, the same kvindex
// lifecycle, the same write path (BufferNode::Upsert: an upsert fills a
// slot after its log entry, or flushes the node to its chain as an
// unlogged trigger write) and the same recovery (WalSet::Replay filtered by
// BufferNode::recovery_orig_ts, and a persisted timestamp floor). Routing
// is simpler than the tree's: an entry's chain is recomputed from its key
// hash, so no fence entries are needed. The bucket count is fixed (resizing à la
// CLevel is out of scope for this prototype).
#ifndef SRC_CORE_CCL_HASH_H_
#define SRC_CORE_CCL_HASH_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/core/buffer_node.h"
#include "src/core/leaf_node.h"
#include "src/core/options.h"
#include "src/core/wal.h"
#include "src/kvindex/kv_index.h"
#include "src/kvindex/runtime.h"
#include "src/pmem/slab_allocator.h"

namespace cclbt::core {

class CclHashTable : public kvindex::KvIndex {
 public:
  // Formats a fresh table of `num_buckets` chains in the runtime's pool
  // (Lifecycle::kCreate, app-root slot 1), or binds to an existing table
  // after Runtime::Reopen() (Lifecycle::kAttach: the bucket count is the
  // persisted one) — an attached table must complete Recover() before any
  // operation. Reads nbatch (0 = the unbuffered ablation arm: every upsert
  // is a trigger write, a direct bucket write that write-conservative
  // logging never logs), write_conservative_logging and max_workers from
  // `options`.
  CclHashTable(kvindex::Runtime& runtime, const TreeOptions& options, size_t num_buckets,
               kvindex::Lifecycle lifecycle = kvindex::Lifecycle::kCreate);

  ~CclHashTable() override;

  CclHashTable(const CclHashTable&) = delete;
  CclHashTable& operator=(const CclHashTable&) = delete;

  // --- kvindex::KvIndex -----------------------------------------------------
  void Upsert(uint64_t key, uint64_t value) override;
  bool Lookup(uint64_t key, uint64_t* value_out) override;
  bool Remove(uint64_t key) override;  // tombstone upsert; always true
  // A hash keeps no key order, so a range query sweeps every chain: buffered
  // slots override the chain, tombstones are skipped, and the `count`
  // smallest keys >= start_key are returned in key order.
  size_t Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) override;
  const char* name() const override { return "CCL-Hash"; }
  kvindex::MemoryFootprint Footprint() const override;

  // --- persistence lifecycle (DESIGN.md §9) ----------------------------------
  bool recoverable() const override { return true; }
  // WAL entries are checksum-tagged and a bucket commit persists its data
  // lines before the header line that publishes them.
  bool tolerates_torn_crash() const override { return true; }
  // Rebuilds the directory, snapshots each chain's largest timestamp (or
  // the persisted floor if larger) as its replay filter, stages each key's
  // newest WAL entry in its chain's buffer node on `recovery_threads`
  // virtual workers and makes them durable with one locality-aware GC copy
  // (WalSet::Replay), raises the floor past every timestamp read, and
  // reclaims unreachable overflow buckets and log chunks. A crash anywhere
  // inside recovery recovers again to the same state. Only valid once, on a
  // kAttach instance; returns false if the pool holds no valid table root,
  // a registry, chunk or the directory is not wholly inside the pool, or an
  // overflow chain leaves the overflow slab or loops.
  bool Recover(kvindex::Runtime& runtime, int recovery_threads) override;
  uint64_t last_recovery_modeled_ns() const override { return recovery_phases_.total_ns(); }

  // One locality-aware GC round, run to its end on the calling context
  // (LocalityAwareGcRound: epoch flip, I-log copy of the buffered entries,
  // B-log release). Returns false if the log slab ran out, in which case no
  // log was freed.
  bool RunGcOnce();

  uint64_t log_live_bytes() const { return wals_->live_bytes(); }
  const pmem::SlabAllocator& log_slab() const { return *log_slab_; }
  uint64_t overflow_buckets() const { return overflow_buckets_.load(std::memory_order_relaxed); }

 private:
  struct TableRoot {  // persistent (app-root slot 1)
    uint64_t magic;
    uint64_t num_buckets;
    uint64_t directory_offset;  // array of num_buckets PmLeaf buckets
    uint64_t slab_registry_offset;
    uint64_t log_registry_offset;
    // Every bucket and log timestamp written before the last completed
    // replay is at most this; the table adds it to every ORDO reading.
    uint64_t ts_floor;
  };
  static constexpr uint64_t kHashMagic = 0xCC1AA54ULL;
  static constexpr int kAppRootSlot = 1;

  size_t BucketIndex(uint64_t key) const { return Mix64(key * 3 + 1) % num_buckets_; }
  PmLeaf* Bucket(size_t index) const { return buckets_ + index; }
  PmLeaf* BucketAt(uint64_t offset) const {
    return offset == 0 ? nullptr : static_cast<PmLeaf*>(rt_.pool().ToAddr(offset));
  }
  // Timestamp for a log entry or bucket commit: the ORDO clock above the floor.
  uint64_t Timestamp() const { return ts_floor_ + rt_.ordo().Now(); }
  // Modeled time of `accesses` DRAM accesses, as CclBTree charges them: one
  // for the directory slot, nbatch per buffer probe.
  void ChargeDram(uint64_t accesses) const {
    pmsim::AdvanceCpu(accesses * rt_.device().config().cost.dram_access_ns);
  }

  // Applies a batch to bn's bucket chain (bn locked): in-place updates,
  // tombstone bit-clears, appends, overflow buckets when the chain is full.
  // Commits each touched bucket once, data lines then header; only the
  // bucket committed last is stamped with `ts`, so the chain's largest
  // timestamp covers exactly the batches that are durable. When update_ts
  // is false (recovery replay) no timestamp changes.
  void BatchInsertBucket(BufferNode* bn, const kvindex::KeyValue* kvs, int n, uint64_t ts,
                         bool update_ts = true);

  kvindex::Runtime& rt_;
  TreeOptions options_;
  size_t num_buckets_;
  kvindex::Lifecycle lifecycle_;
  bool recovered_ = false;
  std::unique_ptr<pmem::SlabAllocator> overflow_slab_;
  std::unique_ptr<pmem::SlabAllocator> log_slab_;
  std::unique_ptr<WalSet> wals_;

  PmLeaf* buckets_ = nullptr;  // contiguous PM array
  std::vector<BufferNode*> directory_;
  uint64_t ts_floor_ = 0;  // TableRoot::ts_floor as of the last Recover()

  std::atomic<uint32_t> global_epoch_{0};
  std::atomic<uint64_t> overflow_buckets_{0};
  RecoveryPhases recovery_phases_;  // of the last Recover(), written before recovered_
};

}  // namespace cclbt::core

#endif  // SRC_CORE_CCL_HASH_H_
