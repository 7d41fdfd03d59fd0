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
// It is a CclIndex, as CCL-BTree is: the same TreeOptions (all but
// root_slot), write path (BufferNode::Upsert: an upsert fills a slot after
// its log entry, or flushes the node to its chain as an unlogged trigger
// write), GC scheduling and recovery (CclIndex::Replay filtered by
// BufferNode::recovery_orig_ts, and a persisted timestamp floor). Routing is
// simpler than the tree's: an entry's chain is recomputed from its key hash,
// so no fence entries are needed. The bucket count is fixed (resizing à la
// CLevel is out of scope for this prototype).
#ifndef SRC_CORE_CCL_HASH_H_
#define SRC_CORE_CCL_HASH_H_

#include <vector>

#include "src/core/ccl_index.h"
#include "src/core/leaf_node.h"

namespace cclbt::core {

class CclHashTable : public CclIndex {
 public:
  // Formats a fresh table of `num_buckets` chains in the runtime's pool
  // (Lifecycle::kCreate, app-root slot 1), or binds to an existing table
  // after Runtime::Reopen() (Lifecycle::kAttach: the bucket count is the
  // persisted one) — an attached table must complete Recover() before any
  // operation. With nbatch 0 (the unbuffered ablation arm) every upsert is
  // a trigger write, a direct bucket write that write-conservative logging
  // never logs.
  CclHashTable(kvindex::Runtime& runtime, const TreeOptions& options, size_t num_buckets,
               kvindex::Lifecycle lifecycle = kvindex::Lifecycle::kCreate);

  ~CclHashTable() override;

  // --- kvindex::KvIndex -----------------------------------------------------
  bool Lookup(uint64_t key, uint64_t* value_out) override;
  // A hash keeps no key order, so a range query sweeps every chain: buffered
  // slots override the chain, tombstones are skipped, and the `count`
  // smallest keys >= start_key are returned in key order.
  size_t Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) override;
  const char* name() const override { return "CCL-Hash"; }
  kvindex::MemoryFootprint Footprint() const override;

  // The leaf slab holds exactly the overflow buckets.
  uint64_t overflow_buckets() const { return leaf_slab_->allocated_slots(); }

 private:
  // Root record: magic, the bucket count, the directory's offset (an array
  // of num_buckets PmLeaf buckets), then CclIndex::CommonRoot.
  static constexpr uint64_t kHashMagic = 0xCC1AA54ULL;
  static constexpr int kAppRootSlot = 1;

  // --- CclIndex: the zeroed directory, the chain walk, one DRAM access for
  // the directory slot, and the bucket batch -----------------------------------
  void Format(uint64_t* own) override;
  bool Rebuild(const uint64_t* own, uint64_t floor, uint64_t* max_ts) override;
  BufferNode* LockNode(uint64_t key) override;
  void AfterUpsert(BufferNode* bn, bool /*flushed*/) override { bn->Unlock(); }
  BufferNode* NodeOf(uint64_t key) const override { return directory_[BucketIndex(key)]; }
  void WriteBatch(BufferNode* bn, kvindex::KeyValue* kvs, int n, uint64_t ts) override {
    BatchInsertBucket(bn, kvs, n, ts);
  }
  std::vector<BufferNode*> Nodes() const override { return directory_; }
  uint64_t data_bytes() const override { return (num_buckets_ + overflow_buckets()) * kLeafBytes; }

  size_t BucketIndex(uint64_t key) const { return Mix64(key * 3 + 1) % num_buckets_; }
  PmLeaf* Bucket(size_t index) const { return buckets_ + index; }
  PmLeaf* BucketAt(uint64_t offset) const {
    return offset == 0 ? nullptr : static_cast<PmLeaf*>(rt_.pool().ToAddr(offset));
  }

  // Applies a batch to bn's bucket chain (bn locked): in-place updates,
  // tombstone bit-clears, appends, overflow buckets when the chain is full.
  // Commits each touched bucket once, data lines then header; only the
  // bucket committed last is stamped with `ts` (the head bucket if the batch
  // touches none), so the chain's largest timestamp covers exactly the
  // batches that are durable. A batch stamped 0 (replay) changes none.
  void BatchInsertBucket(BufferNode* bn, const kvindex::KeyValue* kvs, int n, uint64_t ts);

  size_t num_buckets_;
  PmLeaf* buckets_ = nullptr;  // contiguous PM array
  std::vector<BufferNode*> directory_;
};

}  // namespace cclbt::core

#endif  // SRC_CORE_CCL_HASH_H_
