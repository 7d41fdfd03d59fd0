// Shared implementation of the DRAM-inner / PM-leaf baseline B+-trees.
// One class, three flush policies (what the respective papers optimize):
//
//  * kFpTree  — FPTree (Oukid et al., SIGMOD'16): unsorted PM leaves with
//    fingerprints; an insert persists the KV line, then the header line
//    (bitmap commit): 2 flushes, 2 fences.
//  * kLbTree  — LB+-Tree (Liu et al., VLDB'20): entry moving packs the KV
//    into the header cacheline when a header-line slot is free, so the
//    common-case insert is a single flush + fence.
//  * kSorted  — PACTree flavour (Kim et al., SOSP'21): sorted PM leaves with
//    shift-based insertion (more line flushes per insert), NUMA-local leaf
//    allocation from per-socket pools.
//
// None of these reduce XPLine-level randomness: every insert dirties the
// leaf's own (random) XPLine, which is precisely the paper's point (§2.3).
//
// Simplifications vs the original systems (DESIGN.md §6): splits use the
// same logless single-word commit as CCL-BTree instead of FPTree's µlog;
// leaves are never merged on deletion; LB+-Tree's HTM is replaced by the
// version lock (its abort behaviour under skew is modeled in the bench
// harness).
#ifndef SRC_BASELINES_LEAF_TREE_H_
#define SRC_BASELINES_LEAF_TREE_H_

#include <atomic>
#include <memory>
#include "src/common/lock.h"
#include <vector>

#include "src/core/buffer_node.h"
#include "src/kvindex/dram_btree.h"
#include "src/kvindex/kv_index.h"
#include "src/kvindex/runtime.h"
#include "src/pmem/slab_allocator.h"

namespace cclbt::baselines {

enum class LeafPolicy { kFpTree, kLbTree, kSorted };

class LeafTree : public kvindex::KvIndex {
 public:
  struct Options {
    LeafPolicy policy = LeafPolicy::kFpTree;
    // Allocate leaves from the inserting thread's socket (PACTree) instead
    // of socket 0 (single-socket designs).
    bool numa_local_alloc = false;
    const char* name = "LeafTree";
  };

  LeafTree(kvindex::Runtime& runtime, const Options& options);
  ~LeafTree() override;

  void Upsert(uint64_t key, uint64_t value) override;
  bool Lookup(uint64_t key, uint64_t* value_out) override;
  bool Remove(uint64_t key) override;
  size_t Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) override;
  const char* name() const override { return options_.name; }
  kvindex::MemoryFootprint Footprint() const override;

 private:
  core::BufferNode* RouteAndLock(uint64_t key);
  void InsertUnsorted(core::BufferNode* handle, uint64_t key, uint64_t value);
  void InsertSorted(core::BufferNode* handle, uint64_t key, uint64_t value);
  core::BufferNode* SplitLeaf(core::BufferNode* handle);  // returns new right handle, locked
  core::BufferNode* NewHandle(core::PmLeaf* leaf, uint64_t sep);

  kvindex::Runtime& rt_;
  Options options_;
  std::unique_ptr<pmem::SlabAllocator> leaf_slab_;
  kvindex::DramBTree<core::BufferNode*> inner_;
  core::PmLeaf* head_leaf_;

  // Leaf handles, owned: buffer nodes with no slots, so a version lock, the
  // leaf pointer and the separator key (CCL-BTree's optimistic locking).
  sync::Mutex handles_mu_{"bl.leaf_handles"};
  std::vector<core::BufferNode*> handles_;
};

}  // namespace cclbt::baselines

#endif  // SRC_BASELINES_LEAF_TREE_H_
