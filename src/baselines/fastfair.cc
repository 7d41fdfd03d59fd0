#include "src/baselines/fastfair.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "src/pmsim/pmcheck.h"
#include "src/trace/trace.h"

namespace cclbt::baselines {

namespace {
constexpr int kEntries = 15;
constexpr size_t kNodeBytes = 256;

uint32_t LineOfEntry(int index) {
  // 16 B header, then 16 B entries: entry i spans bytes [16+16i, 32+16i).
  return static_cast<uint32_t>((16 + 16 * index) / 64);
}

// Bytes actually carrying state in a node with `count` entries: header plus
// the packed entry prefix. Entries past count are never read (descent,
// lookup, scan and recovery all bound themselves by count), so persisting a
// whole fresh node flushed up to three all-zero tail lines per split
// (pmcheck: redundant flush).
size_t UsedBytes(uint32_t count) { return 16 + 16 * static_cast<size_t>(count); }
}  // namespace

// Sorted PM node. level 0 = leaf (value = payload); level > 0 = inner
// (value = child offset; child covers keys >= key, entry 0's key is the
// subtree low bound with a leading -inf child in `first_child`).
struct FastFairTree::Node {
  uint64_t next_offset;  // right sibling at the same level (0 = none)
  uint32_t count;
  uint16_t level;
  uint16_t padding;
  struct Entry {
    uint64_t key;
    uint64_t value;
  } entries[kEntries];

  uint64_t first_child() const { return entries[0].value; }
};
FastFairTree::FastFairTree(kvindex::Runtime& runtime, kvindex::Lifecycle lifecycle)
    : rt_(runtime), lifecycle_(lifecycle) {
  static_assert(sizeof(Node) == kNodeBytes);
  if (lifecycle_ == kvindex::Lifecycle::kAttach) {
    return;  // binding to the persistent image is deferred to Recover()
  }
  pmsim::ThreadContext boot_ctx(rt_.device(), 0, 0);
  pmem::SlabAllocator::Options slab_options;
  slab_options.slot_bytes = kNodeBytes;
  node_slab_ = pmem::SlabAllocator::Create(rt_.pool(), slab_options);
  root_ = NewNode(/*level=*/0);
  {
    // Formatting persist of the empty root: content-identical to a fresh
    // pool's zeroes, but a reused pool needs the zeroed header durable.
    pmsim::PmCheckExpect format_expect(pmsim::PmCheckClass::kRedundantFlush);
    pmsim::Persist(root_, UsedBytes(0));
  }
  // The initial node is the leftmost leaf for the tree's whole lifetime, so
  // its offset can serve as the persistent recovery chain head.
  rt_.pool().SetAppRoot(kHeadLeafSlot, OffsetOf(root_));
  rt_.pool().SetAppRoot(kSlabRegistrySlot, node_slab_->registry_offset());
}

FastFairTree::~FastFairTree() = default;

bool FastFairTree::Recover(kvindex::Runtime& runtime, int /*recovery_threads*/) {
  assert(&runtime == &rt_ && "Recover must use the runtime the tree was constructed with");
  (void)runtime;
  if (lifecycle_ != kvindex::Lifecycle::kAttach || recovered_) {
    return false;
  }
  uint64_t head_offset = rt_.pool().GetAppRoot(kHeadLeafSlot);
  uint64_t registry_offset = rt_.pool().GetAppRoot(kSlabRegistrySlot);
  if (head_offset == 0 || registry_offset == 0) {
    return false;  // no FAST&FAIR tree was ever created in this pool
  }

  pmsim::ThreadContext boot_ctx(rt_.device(), 0, 0);
  uint64_t boot_start = boot_ctx.now_ns();
  trace::TraceScope scope(trace::Component::kInner);

  pmem::SlabAllocator::Options slab_options;
  slab_options.slot_bytes = kNodeBytes;
  node_slab_ = pmem::SlabAllocator::Open(rt_.pool(), registry_offset, slab_options);
  if (node_slab_ == nullptr) {
    return false;
  }

  // 1. Walk the persistent leaf chain: the leaves hold the entire dataset,
  // and every completed operation fenced its leaf before returning. Leaves
  // emptied by lazy deletion are unlinked (except the fixed head) so the
  // rebuilt inner levels never route a key into them.
  Node* head = NodeAt(head_offset);
  pmsim::ReadPm(head, kNodeBytes);
  std::vector<Node*> leaves{head};
  std::unordered_set<const void*> live{head};
  Node* prev = head;
  Node* cur = head->next_offset == 0 ? nullptr : NodeAt(head->next_offset);
  while (cur != nullptr) {
    pmsim::ReadPm(cur, kNodeBytes);
    Node* next = cur->next_offset == 0 ? nullptr : NodeAt(cur->next_offset);
    if (cur->count == 0) {
      prev->next_offset = cur->next_offset;
      pmsim::FlushLine(prev);
      pmsim::Fence();
    } else {
      leaves.push_back(cur);
      live.insert(cur);
      prev = cur;
    }
    cur = next;
  }

  // 2. Reclaim every slot not on the chain: the pre-crash inner nodes
  // (rebuilt below), split siblings that persisted but were never linked,
  // and the empty leaves just unlinked.
  node_slab_->Recover([&live](const void* slot) { return live.count(slot) != 0; });
  node_count_ = leaves.size();

  // 3. Rebuild the inner levels bottom-up. Inner nodes are pure routing
  // state derivable from the leaf chain; rebuilding them also repairs the
  // mid-split states FAIR tolerates online (a right sibling already linked
  // into its level whose separator never reached the parent).
  std::vector<Node*> level = leaves;
  while (level.size() > 1) {
    std::vector<Node*> parents;
    for (size_t i = 0; i < level.size(); i += kEntries) {
      Node* parent = NewNode(level[i]->level + 1u);
      auto take = static_cast<uint32_t>(std::min<size_t>(kEntries, level.size() - i));
      parent->count = take;
      for (uint32_t j = 0; j < take; j++) {
        Node* child = level[i + j];
        // entries[0].key of any node is its subtree's low bound: never
        // compared during descent within the node itself, but it serves as
        // the separator one level up.
        parent->entries[j] = {child->entries[0].key, OffsetOf(child)};
      }
      if (!parents.empty()) {
        parents.back()->next_offset = OffsetOf(parent);
      }
      parents.push_back(parent);
    }
    for (Node* parent : parents) {
      pmsim::Persist(parent, UsedBytes(parent->count));
    }
    level = std::move(parents);
  }
  root_ = level[0];
  last_recovery_modeled_ns_ = boot_ctx.now_ns() - boot_start;
  recovered_ = true;
  return true;
}

FastFairTree::Node* FastFairTree::NewNode(uint32_t level) {
  // The paper's setup pre-allocates from the local socket for all indexes;
  // FAST&FAIR itself is NUMA-oblivious, so everything sits on socket 0.
  auto* node = static_cast<Node*>(node_slab_->Allocate(0));
  assert(node != nullptr && "PM exhausted");
  std::memset(static_cast<void*>(node), 0, kNodeBytes);
  node->level = static_cast<uint16_t>(level);
  node_count_++;
  return node;
}

FastFairTree::Node* FastFairTree::NodeAt(uint64_t offset) const {
  return static_cast<Node*>(rt_.pool().ToAddr(offset));
}

uint64_t FastFairTree::OffsetOf(const Node* node) const { return rt_.pool().ToOffset(node); }

FastFairTree::Node* FastFairTree::DescendToLeaf(uint64_t key, Node** path, int* path_len) const {
  Node* node = root_;
  int depth = 0;
  while (node->level > 0) {
    // Inner nodes are PM-resident, but the upper levels are hot enough to
    // stay in the CPU cache; only the last inner level (as numerous as the
    // leaves) realistically misses to PM.
    if (node->level == 1) {
      pmsim::ReadPm(node, kNodeBytes);
    }
    if (path != nullptr) {
      path[depth] = node;
    }
    depth++;
    // entries[0].key is a low sentinel: children partition by entry keys.
    int slot = static_cast<int>(node->count) - 1;
    while (slot > 0 && key < node->entries[slot].key) {
      slot--;
    }
    node = NodeAt(node->entries[slot].value);
  }
  if (path_len != nullptr) {
    *path_len = depth;
  }
  pmsim::ReadPm(node, kNodeBytes);
  return node;
}

void FastFairTree::InsertIntoNode(Node* node, uint64_t key, uint64_t payload, Node** path,
                                  int path_len) {
  // FAST+FAIR writes PM at every level; leaf vs inner attribution follows the
  // node being modified.
  trace::TraceScope scope(node->level == 0 ? trace::Component::kLeaf
                                           : trace::Component::kInner);
  // Position among sorted entries.
  int pos = 0;
  while (pos < static_cast<int>(node->count) && node->entries[pos].key < key) {
    pos++;
  }
  if (node->level == 0 && pos < static_cast<int>(node->count) && node->entries[pos].key == key) {
    node->entries[pos].value = payload;  // in-place update
    pmsim::FlushLine(reinterpret_cast<const std::byte*>(node) + LineOfEntry(pos) * 64);
    pmsim::Fence();
    return;
  }
  if (node->count < kEntries) {
    // FAST: shift right one by one, flushing each crossed cacheline; a single
    // fence at the end (transient states are read-tolerable by design).
    uint32_t dirty_lines = 1u << LineOfEntry(pos);
    for (int i = static_cast<int>(node->count); i > pos; i--) {
      node->entries[i] = node->entries[i - 1];
      dirty_lines |= 1u << LineOfEntry(i);
    }
    node->entries[pos] = {key, payload};
    node->count++;
    dirty_lines |= 1u;  // header line (count)
    for (uint32_t line = 0; line < 4; line++) {
      if ((dirty_lines >> line) & 1) {
        pmsim::FlushLine(reinterpret_cast<const std::byte*>(node) + line * 64);
      }
    }
    pmsim::Fence();
    return;
  }

  // Split (FAIR): move the upper half to a new sibling, persist it, then
  // shrink this node and link the sibling.
  Node* right = NewNode(node->level);
  int mid = kEntries / 2;
  right->count = static_cast<uint32_t>(kEntries - mid);
  std::memcpy(right->entries, node->entries + mid, sizeof(Node::Entry) * right->count);
  right->next_offset = node->next_offset;
  pmsim::Persist(right, UsedBytes(right->count));
  uint64_t split_key = right->entries[0].key;

  node->count = static_cast<uint32_t>(mid);
  node->next_offset = OffsetOf(right);
  pmsim::FlushLine(node);  // header line carries count + next
  pmsim::Fence();

  // Insert the pending entry into the proper half.
  Node* target = key < split_key ? node : right;
  InsertIntoNode(target, key, payload, nullptr, 0);

  // Propagate the separator to the parent.
  if (node == root_) {
    Node* new_root = NewNode(node->level + 1);
    new_root->count = 2;
    new_root->entries[0] = {0, OffsetOf(node)};
    new_root->entries[1] = {split_key, OffsetOf(right)};
    pmsim::Persist(new_root, UsedBytes(new_root->count));
    root_ = new_root;
    return;
  }
  assert(path_len > 0 && "non-root node must have a parent on the path");
  InsertIntoNode(path[path_len - 1], split_key, OffsetOf(right), path, path_len - 1);
}

void FastFairTree::Upsert(uint64_t key, uint64_t value) {
  assert(key != 0);
  sync::LockGuard<sync::SharedMutex> guard(mu_);
  Node* path[24];
  int path_len = 0;
  Node* leaf = DescendToLeaf(key, path, &path_len);
  InsertIntoNode(leaf, key, value, path, path_len);
}

bool FastFairTree::Lookup(uint64_t key, uint64_t* value_out) {
  sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
  Node* leaf = DescendToLeaf(key, nullptr, nullptr);
  // Binary search within the sorted leaf.
  const auto* begin = leaf->entries;
  const auto* end = leaf->entries + leaf->count;
  const auto* it = std::lower_bound(begin, end, key,
                                    [](const Node::Entry& e, uint64_t k) { return e.key < k; });
  if (it == end || it->key != key) {
    return false;
  }
  *value_out = it->value;
  return true;
}

bool FastFairTree::Remove(uint64_t key) {
  // Lazy deletion only ever rewrites a leaf.
  trace::TraceScope scope(trace::Component::kLeaf);
  sync::LockGuard<sync::SharedMutex> guard(mu_);
  Node* leaf = DescendToLeaf(key, nullptr, nullptr);
  int pos = 0;
  while (pos < static_cast<int>(leaf->count) && leaf->entries[pos].key < key) {
    pos++;
  }
  if (pos >= static_cast<int>(leaf->count) || leaf->entries[pos].key != key) {
    return false;
  }
  // Lazy deletion: shift left, no merging (as in the original).
  uint32_t dirty_lines = 1u;  // header (count)
  for (int i = pos; i + 1 < static_cast<int>(leaf->count); i++) {
    leaf->entries[i] = leaf->entries[i + 1];
    dirty_lines |= 1u << LineOfEntry(i);
  }
  leaf->count--;
  for (uint32_t line = 0; line < 4; line++) {
    if ((dirty_lines >> line) & 1) {
      pmsim::FlushLine(reinterpret_cast<const std::byte*>(leaf) + line * 64);
    }
  }
  pmsim::Fence();
  return true;
}

size_t FastFairTree::Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) {
  sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
  Node* leaf = DescendToLeaf(start_key, nullptr, nullptr);
  size_t produced = 0;
  while (leaf != nullptr && produced < count) {
    pmsim::ReadPm(leaf, kNodeBytes);
    for (int i = 0; i < static_cast<int>(leaf->count) && produced < count; i++) {
      if (leaf->entries[i].key >= start_key) {
        out[produced++] = {leaf->entries[i].key, leaf->entries[i].value};
      }
    }
    leaf = leaf->next_offset == 0 ? nullptr : NodeAt(leaf->next_offset);
  }
  return produced;
}

kvindex::MemoryFootprint FastFairTree::Footprint() const {
  kvindex::MemoryFootprint footprint;
  footprint.dram_bytes = 0;  // pure PM index
  footprint.pm_bytes = rt_.pool().AllocatedBytes();
  return footprint;
}

}  // namespace cclbt::baselines
