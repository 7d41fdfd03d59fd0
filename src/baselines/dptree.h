// DPTree-style baseline (Zhou et al., VLDB'19): differential indexing with a
// single *global* DRAM buffer tree in front of a PM base tree. Writes go to
// the buffer (plus a PM log for crash consistency); when the buffer exceeds
// a fraction of the base tree, it is merged wholesale into the PM leaves.
// This is the "global buffering" strawman of the paper's §3.2:
//   * the base tree uses large leaves (256 KVs, paper §5.1) rewritten
//     copy-on-write at merge time, so sparse merges rewrite 4 KB per few
//     changed keys -> the highest XBI of all competitors (paper: 43.2 at 48
//     threads vs CCL-BTree's 10.2);
//   * foreground operations stall behind the merge -> 100 ms-scale tail
//     latencies (paper Fig. 12(a));
//   * reads must probe the large global buffer before the base tree.
//
// Simplifications (DESIGN.md §6): base-tree crash consistency (DPTree's
// version/epoch scheme) is not implemented — recovery of this baseline is
// not part of any reproduced experiment.
#ifndef SRC_BASELINES_DPTREE_H_
#define SRC_BASELINES_DPTREE_H_

#include <atomic>
#include <map>
#include <memory>
#include "src/common/lock.h"
#include <vector>

#include "src/core/wal.h"
#include "src/kvindex/dram_btree.h"
#include "src/kvindex/kv_index.h"
#include "src/kvindex/runtime.h"
#include "src/pmem/slab_allocator.h"

namespace cclbt::baselines {

class DpTree : public kvindex::KvIndex {
 public:
  struct Options {
    // Merge when buffered entries exceed this fraction (percent) of the base
    // tree's entry count (DPTree merges at 1/16 ~ 6%; we default to 10%).
    int merge_threshold_pct = 6;
    size_t min_buffer_entries = 4096;
  };

  explicit DpTree(kvindex::Runtime& runtime) : DpTree(runtime, Options()) {}
  DpTree(kvindex::Runtime& runtime, const Options& options);
  ~DpTree() override;

  void Upsert(uint64_t key, uint64_t value) override;
  bool Lookup(uint64_t key, uint64_t* value_out) override;
  bool Remove(uint64_t key) override;
  size_t Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) override;
  const char* name() const override { return "DPTree"; }
  kvindex::MemoryFootprint Footprint() const override;
  void FlushAll() override;

  uint64_t merges() const { return merges_.load(std::memory_order_relaxed); }

 private:
  // PM base-tree leaf: 4 KB, 252 sorted KVs (the "large leaf nodes
  // containing 256 KVs to amortize persistence overhead" of §5.1).
  static constexpr size_t kBigLeafBytes = 4096;
  static constexpr size_t kBigLeafCap = (kBigLeafBytes - 64) / 16;  // 252
  struct BigLeaf {
    uint64_t count;
    uint8_t padding[56];
    kvindex::KeyValue kvs[252];  // sorted
  };
  static_assert(sizeof(BigLeaf) == kBigLeafBytes);

  void MergeLocked();
  // Rewrites one leaf copy-on-write with `changes` (sorted upserts and
  // tombstones) applied; publishes the replacement(s) into the DRAM index.
  void RewriteLeaf(uint64_t sep, BigLeaf* leaf, const std::vector<kvindex::KeyValue>& changes);
  bool BaseLookup(uint64_t key, uint64_t* value_out) const;

  kvindex::Runtime& rt_;
  Options options_;
  std::unique_ptr<pmem::SlabAllocator> log_slab_;
  std::unique_ptr<core::WalSet> wals_;
  std::unique_ptr<pmem::SlabAllocator> leaf_slab_;

  mutable sync::SharedMutex mu_{"bl.dptree_gate"};  // buffer ops shared; merge exclusive
  std::map<uint64_t, uint64_t> buffer_;  // global DRAM buffer (front tree)
  mutable sync::SharedMutex buffer_mu_{"bl.dptree_buffer"};
  kvindex::DramBTree<BigLeaf*> base_index_;  // separator -> PM big leaf
  std::atomic<uint64_t> base_entries_{0};
  std::atomic<uint64_t> merges_{0};
};

}  // namespace cclbt::baselines

#endif  // SRC_BASELINES_DPTREE_H_
