#include "src/baselines/utree.h"

#include <cassert>
#include <cstring>

#include "src/pmsim/pmcheck.h"
#include "src/trace/trace.h"

namespace cclbt::baselines {

// One XPLine-quarter per KV: key, value, next pointer, valid flag.
struct UTree::ListNode {
  uint64_t key;
  uint64_t value;
  uint64_t next_offset;
  uint64_t valid;  // 1 = live; cleared on delete (8 B-atomic commit)
  uint8_t padding[32];
};
UTree::UTree(kvindex::Runtime& runtime) : rt_(runtime) {
  static_assert(sizeof(ListNode) == 64);
  pmsim::ThreadContext boot_ctx(rt_.device(), 0, 0);
  pmem::SlabAllocator::Options slab_options;
  slab_options.slot_bytes = sizeof(ListNode);
  node_slab_ = pmem::SlabAllocator::Create(rt_.pool(), slab_options);
  head_ = static_cast<ListNode*>(node_slab_->Allocate(0));
  assert(head_ != nullptr);
  std::memset(static_cast<void*>(head_), 0, sizeof(ListNode));
  {
    // Formatting persist of the zeroed head sentinel (see LeafTree's ctor).
    trace::TraceScope scope(trace::Component::kLeaf);
    pmsim::PmCheckExpect format_expect(pmsim::PmCheckClass::kRedundantFlush);
    pmsim::Persist(head_, sizeof(ListNode));
  }
  index_.Insert(0, head_);
}

UTree::~UTree() = default;

UTree::ListNode* UTree::NodeAt(uint64_t offset) const {
  return static_cast<ListNode*>(rt_.pool().ToAddr(offset));
}

void UTree::Upsert(uint64_t key, uint64_t value) {
  assert(key != 0);
  // The PM list is µTree's leaf layer; its index lives in DRAM.
  trace::TraceScope scope(trace::Component::kLeaf);
  pmsim::AdvanceCpu(8 * rt_.device().config().cost.dram_access_ns);
  sync::LockGuard<sync::SharedMutex> guard(mu_);
  ListNode* existing = nullptr;
  if (index_.Get(key, &existing)) {
    // In-place value update: one random PM line.
    existing->value = value;
    pmsim::FlushLine(existing);
    pmsim::Fence();
    return;
  }
  // Predecessor via the DRAM index (floor).
  bool found = false;
  ListNode* pred = index_.RouteFloor(key, &found);
  assert(found);
  auto* node = static_cast<ListNode*>(node_slab_->Allocate(0));
  assert(node != nullptr && "PM exhausted");
  node->key = key;
  node->value = value;
  node->next_offset = pred->next_offset;
  node->valid = 1;
  // Two random PM lines per insert: the new node, then the predecessor link.
  pmsim::Persist(node, sizeof(ListNode));
  pred->next_offset = rt_.pool().ToOffset(node);
  pmsim::FlushLine(&pred->next_offset);
  pmsim::Fence();
  index_.Insert(key, node);
}

bool UTree::Lookup(uint64_t key, uint64_t* value_out) {
  pmsim::AdvanceCpu(8 * rt_.device().config().cost.dram_access_ns);
  sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
  ListNode* node = nullptr;
  if (!index_.Get(key, &node) || node->valid == 0) {
    return false;
  }
  pmsim::ReadPm(node, sizeof(ListNode));
  *value_out = node->value;
  return true;
}

bool UTree::Remove(uint64_t key) {
  trace::TraceScope scope(trace::Component::kLeaf);
  pmsim::AdvanceCpu(8 * rt_.device().config().cost.dram_access_ns);
  sync::LockGuard<sync::SharedMutex> guard(mu_);
  ListNode* node = nullptr;
  if (!index_.Get(key, &node)) {
    return false;
  }
  // Invalidate (8 B atomic), then unlink lazily via the predecessor.
  node->valid = 0;
  pmsim::FlushLine(&node->valid);
  pmsim::Fence();
  bool found = false;
  ListNode* pred = index_.RouteFloor(key - 1, &found);
  if (found && pred->next_offset == rt_.pool().ToOffset(node)) {
    pred->next_offset = node->next_offset;
    pmsim::FlushLine(&pred->next_offset);
    pmsim::Fence();
    node_slab_->Free(node);
  }
  index_.Remove(key);
  return true;
}

size_t UTree::Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) {
  sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
  bool found = false;
  ListNode* node = index_.RouteFloor(start_key, &found);
  if (!found) {
    return 0;
  }
  size_t produced = 0;
  // Chase the PM list: one random XPLine read per KV (the µTree scan cost).
  uint64_t next = node->key >= start_key && node->valid != 0 ? rt_.pool().ToOffset(node)
                                                             : node->next_offset;
  while (next != 0 && produced < count) {
    ListNode* current = NodeAt(next);
    pmsim::ReadPm(current, sizeof(ListNode));
    if (current->valid != 0 && current->key >= start_key) {
      out[produced++] = {current->key, current->value};
    }
    next = current->next_offset;
  }
  return produced;
}

kvindex::MemoryFootprint UTree::Footprint() const {
  kvindex::MemoryFootprint footprint;
  footprint.dram_bytes = index_.MemoryBytes();  // per-KV DRAM index
  footprint.pm_bytes = rt_.pool().AllocatedBytes();
  return footprint;
}

}  // namespace cclbt::baselines
