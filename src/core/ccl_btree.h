// CCL-BTree: crash-consistent locality-aware B+-tree (the paper's
// contribution). See DESIGN.md for the module map.
//
// Structure (paper Figure 6):
//   inner nodes   DRAM  kvindex::DramBTree separators -> BufferNode*
//   buffer nodes  DRAM  N_batch write-merging slots + read cache (§3.2)
//   leaf nodes    PM    256 B, unsorted, ordered between leaves (§4.1)
//   WALs          PM    per-thread, write-conservative (§3.3)
//   GC            background, locality-aware B-log/I-log flip (§3.4)
// The write path, WALs, GC and recovery are CclIndex's.
#ifndef SRC_CORE_CCL_BTREE_H_
#define SRC_CORE_CCL_BTREE_H_

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "src/common/lock.h"
#include "src/core/ccl_index.h"
#include "src/core/leaf_node.h"
#include "src/kvindex/dram_btree.h"

namespace cclbt::core {

class CclBTree : public CclIndex {
 public:
  // Formats a fresh tree in the runtime's pool (Lifecycle::kCreate), or
  // binds to an existing persistent tree after Runtime::Reopen()
  // (Lifecycle::kAttach) — an attached tree must complete Recover() before
  // any operation. Its root record is in app-root slot options.root_slot.
  CclBTree(kvindex::Runtime& runtime, const TreeOptions& options,
           kvindex::Lifecycle lifecycle = kvindex::Lifecycle::kCreate);

  ~CclBTree() override;

  // --- kvindex::KvIndex -----------------------------------------------------
  bool Lookup(uint64_t key, uint64_t* value_out) override;
  size_t Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) override;
  const char* name() const override { return "CCL-BTree"; }
  kvindex::MemoryFootprint Footprint() const override;

  // --- introspection ----------------------------------------------------------
  uint64_t leaf_bytes() const { return leaf_slab_->allocated_slots() * kLeafBytes; }
  uint64_t splits() const { return splits_.load(std::memory_order_relaxed); }
  uint64_t merges() const { return merges_.load(std::memory_order_relaxed); }

  // Metrics epoch gauges (kv_index.h contract): GC round count and log
  // backlog, buffer churn, structural counters — all reads of existing
  // relaxed counters/accessors, no pmsim traffic.
  void SampleGauges(std::vector<std::pair<std::string, uint64_t>>* out) const override;

  // Walks the persistent leaf list and verifies structural invariants
  // (ordering between leaves, bitmap/fingerprint agreement). Test hook.
  bool CheckInvariants() const;

 private:
  // Root record: magic, the head leaf's offset, then CclIndex::CommonRoot.
  static constexpr uint64_t kTreeMagic = 0xCC1B7123ULL;

  // --- CclIndex: the head leaf, the leaf-list rebuild, the inner descent,
  // the underflow merge after a flush, and the leaf batch ----------------------
  void Format(uint64_t* own) override;
  bool Rebuild(const uint64_t* own, uint64_t floor, uint64_t* max_ts) override;
  BufferNode* LockNode(uint64_t key) override;
  void AfterUpsert(BufferNode* bn, bool flushed) override;
  BufferNode* NodeOf(uint64_t key) const override { return inner_.RouteFloor(key); }
  void WriteBatch(BufferNode* bn, kvindex::KeyValue* kvs, int n, uint64_t ts) override;
  std::vector<BufferNode*> Nodes() const override;  // in key order
  uint64_t data_bytes() const override { return leaf_bytes(); }

  // --- write path -------------------------------------------------------------
  // Routes to the covering buffer node and acquires its version lock,
  // retrying on concurrent splits/merges.
  BufferNode* RouteAndLock(uint64_t key);
  // Applies `n` KVs to bn's leaf: in-place updates, tombstones, new slots;
  // splits when full. Persists data lines then the header (bn locked),
  // stamped `ts`; a batch stamped 0 keeps the leaf timestamp (replay).
  void BatchInsertLeaf(BufferNode* bn, kvindex::KeyValue* kvs, int n, uint64_t ts);
  // Logless split (paper §4.2); returns the new right-hand buffer node.
  BufferNode* SplitLeaf(BufferNode* bn);
  // Merge bn's underutilized leaf into its left sibling if possible
  // (paper §4.2). Called with bn *unlocked*; takes locks in key order.
  void TryMergeLeft(uint64_t sep);

  // --- helpers ----------------------------------------------------------------
  PmLeaf* AllocLeaf(int socket);
  BufferNode* NewBufferNode(PmLeaf* leaf, uint64_t sep, uint64_t recovery_ts);
  uint64_t LeafOffset(const PmLeaf* leaf) const;
  PmLeaf* LeafAt(uint64_t offset) const;

  kvindex::DramBTree<BufferNode*> inner_;
  PmLeaf* head_leaf_ = nullptr;

  // All buffer nodes ever created (owned; freed in the destructor — dead
  // nodes stay allocated so optimistic readers never touch freed memory).
  mutable sync::Mutex all_bns_mu_{"tree.all_bns"};
  std::vector<BufferNode*> all_bns_ GUARDED_BY(all_bns_mu_);
  std::atomic<uint64_t> live_bn_count_{0};

  std::atomic<uint64_t> splits_{0};
  std::atomic<uint64_t> merges_{0};
};

}  // namespace cclbt::core

#endif  // SRC_CORE_CCL_BTREE_H_
