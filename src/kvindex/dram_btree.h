// DRAM-resident B+-tree used as the inner-node layer ("the query indexes of
// inserted keys", paper §4.1) by CCL-BTree and by the DRAM-inner baselines.
//
// Semantics: an ordered map from 64-bit separator keys to a pointer-sized
// payload, with *floor* routing — RouteFloor(k) returns the payload of the
// greatest separator <= k, which is how a B+-tree directs a key to the leaf
// whose range contains it.
//
// Concurrency (DESIGN.md §12): the read path is lock-free. Structural
// operations (separator insert/remove on split/merge) are rare relative to
// routing, so writers serialize on an exclusive lock and bump a global
// seqlock version around every mutation; readers descend optimistically
// without any shared-state write, then validate the version — on a change
// (or a torn pointer read) they retry, and after a bounded number of
// attempts fall back to a shared lock. This replaces the previous global
// std::shared_mutex read path, whose per-descent atomic RMW capped
// multi-thread read scaling. Safety relies on two standing invariants:
// nodes are never freed before the tree itself (all_nodes_), so a stale
// pointer always targets a live node; and all descent-visible fields are
// std::atomic, so torn reads cannot fabricate out-of-thin-air values — at
// worst a reader computes a stale result and the version check rejects it.
//
// This substitutes for FAST&FAIR's lock-free inner search (DESIGN.md §6);
// virtual-time metrics are agnostic to the DRAM synchronization scheme.
#ifndef SRC_KVINDEX_DRAM_BTREE_H_
#define SRC_KVINDEX_DRAM_BTREE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "src/common/lock.h"
#include "src/common/simd.h"

namespace cclbt::kvindex {

template <typename V>
class DramBTree {
 public:
  static constexpr int kFanout = 64;   // children per inner node
  static constexpr int kLeafCap = 64;  // entries per leaf node

  DramBTree() { root_.store(NewLeaf(), std::memory_order_release); }

  ~DramBTree() {
    for (Node* node : all_nodes_) {
      if (node->is_leaf) {
        delete static_cast<LeafNode*>(node);
      } else {
        delete static_cast<InnerNode*>(node);
      }
    }
  }

  DramBTree(const DramBTree&) = delete;
  DramBTree& operator=(const DramBTree&) = delete;

  // Inserts separator `key` -> `value`. Keys are unique; inserting an
  // existing key overwrites its payload.
  void Insert(uint64_t key, V value) {
    sync::LockGuard<sync::SharedMutex> guard(mu_);
    WriterSection section(this);
    InsertLocked(key, value);
  }

  // Removes a separator. Returns false if absent.
  bool Remove(uint64_t key) {
    sync::LockGuard<sync::SharedMutex> guard(mu_);
    WriterSection section(this);
    return RemoveLocked(key);
  }

  // Payload of the greatest separator <= key; `found`=false if the tree has
  // no separator <= key (possible only before the caller seeds a sentinel).
  V RouteFloor(uint64_t key, bool* found = nullptr) const {
    uint64_t sep = 0;
    V value{};
    bool has = false;
    ReadSnapshot([&] { return FloorEntryImpl(key, &sep, &value, &has); });
    if (found != nullptr) {
      *found = has;
    }
    return has ? value : V{};
  }

  // Like RouteFloor, but also reports the separator key itself.
  bool RouteFloorEntry(uint64_t key, uint64_t* sep_out, V* value_out) const {
    uint64_t sep = 0;
    V value{};
    bool has = false;
    ReadSnapshot([&] { return FloorEntryImpl(key, &sep, &value, &has); });
    if (!has) {
      return false;
    }
    *sep_out = sep;
    *value_out = value;
    return true;
  }

  // Smallest separator strictly greater than `key`; false if none.
  bool NextEntry(uint64_t key, uint64_t* next_key, V* next_value) const {
    uint64_t nk = 0;
    V nv{};
    bool has = false;
    ReadSnapshot([&] {
      const LeafNode* leaf = DescendToLeaf(key);
      if (leaf == nullptr) {
        return false;  // torn pointer read; retry
      }
      int n = ClampCount(leaf->count.load(std::memory_order_relaxed), kLeafCap);
      int pos = UpperBoundProbe(leaf->keys, n, key);
      while (leaf != nullptr && pos >= n) {
        leaf = leaf->next.load(std::memory_order_acquire);
        pos = 0;
        n = leaf == nullptr ? 0 : ClampCount(leaf->count.load(std::memory_order_relaxed), kLeafCap);
      }
      if (leaf == nullptr) {
        has = false;
        return true;
      }
      nk = leaf->keys[pos].load(std::memory_order_relaxed);
      nv = leaf->values[pos].load(std::memory_order_relaxed);
      has = true;
      return true;
    });
    if (!has) {
      return false;
    }
    *next_key = nk;
    *next_value = nv;
    return true;
  }

  // Exact lookup of a separator.
  bool Get(uint64_t key, V* value) const {
    V out{};
    bool has = false;
    ReadSnapshot([&] {
      const LeafNode* leaf = DescendToLeaf(key);
      if (leaf == nullptr) {
        return false;
      }
      int n = ClampCount(leaf->count.load(std::memory_order_relaxed), kLeafCap);
      int pos = LowerBoundProbe(leaf->keys, n, key);
      has = pos < n && leaf->keys[pos].load(std::memory_order_relaxed) == key;
      if (has) {
        out = leaf->values[pos].load(std::memory_order_relaxed);
      }
      return true;
    });
    if (!has) {
      return false;
    }
    *value = out;
    return true;
  }

  // Visits entries in ascending key order starting from the greatest
  // separator <= start_key (so the covering range is included). `fn` returns
  // false to stop. Holds the shared lock for the duration (iteration is a
  // rare GC/debug path): callers that do slow work per entry should use
  // NextEntry stepping instead.
  template <typename Fn>
  void ForEachFrom(uint64_t start_key, Fn&& fn) const {
    sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
    const LeafNode* leaf;
    int pos;
    if (!FloorPosLocked(start_key, &leaf, &pos)) {
      // No separator <= start_key: begin from the smallest entry instead.
      leaf = DescendToLeaf(0);
      pos = 0;
    }
    while (leaf != nullptr) {
      int n = ClampCount(leaf->count.load(std::memory_order_relaxed), kLeafCap);
      for (; pos < n; pos++) {
        if (!fn(leaf->keys[pos].load(std::memory_order_relaxed),
                leaf->values[pos].load(std::memory_order_relaxed))) {
          return;
        }
      }
      leaf = leaf->next.load(std::memory_order_acquire);
      pos = 0;
    }
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }

  // Approximate DRAM footprint (nodes only).
  uint64_t MemoryBytes() const {
    sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
    return inner_count_ * sizeof(InnerNode) + leaf_count_ * sizeof(LeafNode);
  }

  int height() const {
    sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
    int h = 1;
    const Node* node = root_.load(std::memory_order_acquire);
    while (!node->is_leaf) {
      node = static_cast<const InnerNode*>(node)->children[0].load(std::memory_order_acquire);
      h++;
    }
    return h;
  }

 private:
  static constexpr int kOptimisticAttempts = 16;

  struct Node {
    const bool is_leaf;
    std::atomic<int> count{0};
    explicit Node(bool leaf) : is_leaf(leaf) {}
  };

  // Atomic arrays are value-initialized: an optimistic reader racing a
  // writer may load a slot the writer has not filled yet; it must read a
  // defined value (0 / nullptr) so the version check — not the load — is
  // what rejects the attempt.
  struct LeafNode : Node {
    LeafNode() : Node(true) {}
    std::atomic<uint64_t> keys[kLeafCap] = {};
    std::atomic<V> values[kLeafCap] = {};
    std::atomic<LeafNode*> next{nullptr};
    std::atomic<LeafNode*> prev{nullptr};
  };

  struct InnerNode : Node {
    InnerNode() : Node(false) {}
    // children[i] covers keys in [keys[i-1], keys[i]); children[0] covers
    // everything below keys[0]. count == number of keys.
    std::atomic<uint64_t> keys[kFanout - 1] = {};
    std::atomic<Node*> children[kFanout] = {};
  };

  static_assert(sizeof(std::atomic<uint64_t>) == sizeof(uint64_t) &&
                    std::atomic<uint64_t>::is_always_lock_free,
                "SIMD separator search reinterprets the atomic key array");
  static_assert(std::atomic<V>::is_always_lock_free, "payloads must be lock-free atomics");

  // Writers already hold mu_ exclusively; the version bump makes them
  // visible to optimistic readers (SeqLock's externally-serialized writer
  // side: WriteBegin makes the version odd with a release fence before any
  // mutation, WriteEnd's release store publishes the mutations).
  struct SCOPED_CAPABILITY WriterSection {
    explicit WriterSection(DramBTree* tree) ACQUIRE(tree->version_) : lock_(tree->version_) {
      lock_.WriteBegin();
    }
    ~WriterSection() RELEASE() { lock_.WriteEnd(); }
    sync::SeqLock& lock_;
  };

  // Runs `body` optimistically: body returns false if it hit a torn read
  // (null child) and must be retried. A completed body is accepted only if
  // the version is unchanged and even. After kOptimisticAttempts the reader
  // falls back to the shared lock (writers are exclusive, so under the lock
  // the body always completes and the result is consistent by construction).
  template <typename Body>
  void ReadSnapshot(Body&& body) const {
    for (int attempt = 0; attempt < kOptimisticAttempts; attempt++) {
      uint64_t v = version_.ReadBeginNoWait();
      if ((v & 1) == 0) {
        bool complete = body();
        // Retire the section unconditionally: every even snapshot opened a
        // read section and owes the observer exactly one validate.
        bool unchanged = version_.ReadValidate(v);
        if (complete && unchanged) {
          return;
        }
      }
      simd::CpuRelax();
    }
    sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
    bool complete = body();
    assert(complete);
    (void)complete;
  }

  static int ClampCount(int count, int cap) {
    return count < 0 ? 0 : (count > cap ? cap : count);
  }

  static void PrefetchNode(const Node* node) {
    if (node != nullptr) {
      const char* p = reinterpret_cast<const char*>(node);
      __builtin_prefetch(p);       // header + first keys
      __builtin_prefetch(p + 64);  // separator array body
      __builtin_prefetch(p + 128);
    }
  }

  // Branchless separator search over the (possibly racing) atomic key
  // array. Under TSan the SIMD reinterpret would hide these reads from the
  // race checker, so the instrumented build uses per-element atomic loads.
  static int UpperBoundProbe(const std::atomic<uint64_t>* keys, int n, uint64_t key) {
    if constexpr (simd::kTsanBuild) {
      int count = 0;
      for (int i = 0; i < n; i++) {
        count += keys[i].load(std::memory_order_relaxed) <= key ? 1 : 0;
      }
      return count;
    } else {
      return simd::CountLessEq(reinterpret_cast<const uint64_t*>(keys), n, key);
    }
  }
  static int LowerBoundProbe(const std::atomic<uint64_t>* keys, int n, uint64_t key) {
    if constexpr (simd::kTsanBuild) {
      int count = 0;
      for (int i = 0; i < n; i++) {
        count += keys[i].load(std::memory_order_relaxed) < key ? 1 : 0;
      }
      return count;
    } else {
      return simd::CountLess(reinterpret_cast<const uint64_t*>(keys), n, key);
    }
  }

  // Sorted binary search for the writer path (exclusive lock held, array is
  // consistent).
  static int LowerBoundLocked(const std::atomic<uint64_t>* keys, int n, uint64_t key) {
    int lo = 0;
    int hi = n;
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (keys[mid].load(std::memory_order_relaxed) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  static int UpperBoundLocked(const std::atomic<uint64_t>* keys, int n, uint64_t key) {
    int lo = 0;
    int hi = n;
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (keys[mid].load(std::memory_order_relaxed) <= key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  LeafNode* NewLeaf() {
    auto* leaf = new LeafNode();
    all_nodes_.push_back(leaf);
    leaf_count_++;
    return leaf;
  }
  InnerNode* NewInner() {
    auto* inner = new InnerNode();
    all_nodes_.push_back(inner);
    inner_count_++;
    return inner;
  }

  // Descends to the leaf covering `key`. Safe both optimistically (may
  // return nullptr on a torn child read — caller retries) and under either
  // lock. Child nodes are prefetched as soon as the pointer is known so the
  // next level's header and separator lines are in flight during the hop.
  const LeafNode* DescendToLeaf(uint64_t key) const {
    const Node* node = root_.load(std::memory_order_acquire);
    while (node != nullptr && !node->is_leaf) {
      const auto* inner = static_cast<const InnerNode*>(node);
      int n = ClampCount(inner->count.load(std::memory_order_relaxed), kFanout - 1);
      int slot = UpperBoundProbe(inner->keys, n, key);
      const Node* child = inner->children[slot].load(std::memory_order_acquire);
      PrefetchNode(child);
      node = child;
    }
    return static_cast<const LeafNode*>(node);
  }

  // Locates the greatest separator <= key. Handles the cases where the
  // routed leaf's minimum exceeds `key` (its original minimum was removed)
  // or the leaf is empty, by walking the doubly-linked leaf list leftward.
  // Returns false on a torn read (optimistic callers retry); reports
  // `*has`=false when no separator <= key exists.
  bool FloorEntryImpl(uint64_t key, uint64_t* sep, V* value, bool* has) const {
    const LeafNode* leaf = DescendToLeaf(key);
    if (leaf == nullptr) {
      return false;
    }
    int n = ClampCount(leaf->count.load(std::memory_order_relaxed), kLeafCap);
    int pos = UpperBoundProbe(leaf->keys, n, key) - 1;
    while (pos < 0) {
      leaf = leaf->prev.load(std::memory_order_acquire);
      if (leaf == nullptr) {
        *has = false;
        return true;
      }
      pos = ClampCount(leaf->count.load(std::memory_order_relaxed), kLeafCap) - 1;
    }
    *sep = leaf->keys[pos].load(std::memory_order_relaxed);
    *value = leaf->values[pos].load(std::memory_order_relaxed);
    *has = true;
    return true;
  }

  // Locked-path floor position (ForEachFrom needs the leaf/pos cursor, not
  // just the entry). Caller holds mu_.
  bool FloorPosLocked(uint64_t key, const LeafNode** leaf_out, int* pos_out) const {
    const LeafNode* leaf = DescendToLeaf(key);
    int n = ClampCount(leaf->count.load(std::memory_order_relaxed), kLeafCap);
    int pos = UpperBoundLocked(leaf->keys, n, key) - 1;
    while (pos < 0) {
      leaf = leaf->prev.load(std::memory_order_acquire);
      if (leaf == nullptr) {
        return false;
      }
      pos = ClampCount(leaf->count.load(std::memory_order_relaxed), kLeafCap) - 1;
    }
    *leaf_out = leaf;
    *pos_out = pos;
    return true;
  }

  // Root-to-leaf write path. Fixed capacity so split/merge maintenance never
  // heap-allocates (steady-state upserts are asserted allocation-free by
  // bench_pmsim_hotpath even across leaf merges): splits halve nodes, so
  // every inner level holds >= kFanout/2 children and 24 levels cover far
  // more than 2^64 keys.
  struct MutPath {
    static constexpr int kMaxDepth = 24;
    InnerNode* nodes[kMaxDepth];
    int slots[kMaxDepth];
    int depth = 0;
  };

  LeafNode* DescendToLeafMut(uint64_t key, MutPath* path) {
    Node* node = root_.load(std::memory_order_relaxed);
    while (!node->is_leaf) {
      auto* inner = static_cast<InnerNode*>(node);
      int slot = UpperBoundLocked(inner->keys, inner->count.load(std::memory_order_relaxed), key);
      assert(path->depth < MutPath::kMaxDepth);
      path->nodes[path->depth] = inner;
      path->slots[path->depth] = slot;
      path->depth++;
      node = inner->children[slot].load(std::memory_order_relaxed);
    }
    return static_cast<LeafNode*>(node);
  }

  // Shifts [from, count) one slot right. Descending order so a racing
  // optimistic reader sees duplicated, never fabricated, entries.
  template <typename T>
  static void ShiftRight(std::atomic<T>* arr, int from, int count) {
    for (int i = count; i > from; i--) {
      arr[i].store(arr[i - 1].load(std::memory_order_relaxed), std::memory_order_relaxed);
    }
  }
  template <typename T>
  static void ShiftLeft(std::atomic<T>* arr, int from, int count) {
    for (int i = from; i + 1 < count; i++) {
      arr[i].store(arr[i + 1].load(std::memory_order_relaxed), std::memory_order_relaxed);
    }
  }

  void InsertLocked(uint64_t key, V value) {
    MutPath path;
    LeafNode* leaf = DescendToLeafMut(key, &path);
    int count = leaf->count.load(std::memory_order_relaxed);
    int pos = LowerBoundLocked(leaf->keys, count, key);
    if (pos < count && leaf->keys[pos].load(std::memory_order_relaxed) == key) {
      leaf->values[pos].store(value, std::memory_order_relaxed);
      return;
    }
    if (count < kLeafCap) {
      ShiftRight(leaf->keys, pos, count);
      ShiftRight(leaf->values, pos, count);
      leaf->keys[pos].store(key, std::memory_order_relaxed);
      leaf->values[pos].store(value, std::memory_order_relaxed);
      leaf->count.store(count + 1, std::memory_order_relaxed);
      size_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Split the leaf, then insert into the proper half.
    LeafNode* right = NewLeaf();
    int mid = count / 2;
    for (int i = mid; i < count; i++) {
      right->keys[i - mid].store(leaf->keys[i].load(std::memory_order_relaxed),
                                 std::memory_order_relaxed);
      right->values[i - mid].store(leaf->values[i].load(std::memory_order_relaxed),
                                   std::memory_order_relaxed);
    }
    right->count.store(count - mid, std::memory_order_relaxed);
    leaf->count.store(mid, std::memory_order_relaxed);
    LeafNode* old_next = leaf->next.load(std::memory_order_relaxed);
    right->next.store(old_next, std::memory_order_relaxed);
    right->prev.store(leaf, std::memory_order_relaxed);
    if (old_next != nullptr) {
      old_next->prev.store(right, std::memory_order_release);
    }
    leaf->next.store(right, std::memory_order_release);
    uint64_t sep = right->keys[0].load(std::memory_order_relaxed);
    LeafNode* target = key < sep ? leaf : right;
    int tcount = target->count.load(std::memory_order_relaxed);
    int tpos = LowerBoundLocked(target->keys, tcount, key);
    ShiftRight(target->keys, tpos, tcount);
    ShiftRight(target->values, tpos, tcount);
    target->keys[tpos].store(key, std::memory_order_relaxed);
    target->values[tpos].store(value, std::memory_order_relaxed);
    target->count.store(tcount + 1, std::memory_order_relaxed);
    size_.fetch_add(1, std::memory_order_relaxed);
    PropagateSplit(path, sep, right);
  }

  void PropagateSplit(MutPath& path, uint64_t sep, Node* right) {
    while (path.depth > 0) {
      path.depth--;
      InnerNode* parent = path.nodes[path.depth];
      int slot = path.slots[path.depth];
      int count = parent->count.load(std::memory_order_relaxed);
      if (count < kFanout - 1) {
        ShiftRight(parent->keys, slot, count);
        for (int i = count + 1; i > slot + 1; i--) {
          parent->children[i].store(parent->children[i - 1].load(std::memory_order_relaxed),
                                    std::memory_order_release);
        }
        parent->keys[slot].store(sep, std::memory_order_relaxed);
        parent->children[slot + 1].store(right, std::memory_order_release);
        parent->count.store(count + 1, std::memory_order_relaxed);
        return;
      }
      // Split the inner node. Insert (sep,right) into a temporary layout.
      uint64_t keys[kFanout];
      Node* children[kFanout + 1];
      for (int i = 0; i < count; i++) {
        keys[i] = parent->keys[i].load(std::memory_order_relaxed);
      }
      for (int i = 0; i <= count; i++) {
        children[i] = parent->children[i].load(std::memory_order_relaxed);
      }
      for (int i = count; i > slot; i--) {
        keys[i] = keys[i - 1];
      }
      for (int i = count + 1; i > slot + 1; i--) {
        children[i] = children[i - 1];
      }
      keys[slot] = sep;
      children[slot + 1] = right;
      int total = count + 1;  // keys in temp
      int mid = total / 2;    // keys[mid] moves up
      InnerNode* right_inner = NewInner();
      for (int i = 0; i < mid; i++) {
        parent->keys[i].store(keys[i], std::memory_order_relaxed);
      }
      for (int i = 0; i <= mid; i++) {
        parent->children[i].store(children[i], std::memory_order_release);
      }
      parent->count.store(mid, std::memory_order_relaxed);
      right_inner->count.store(total - mid - 1, std::memory_order_relaxed);
      for (int i = mid + 1; i < total; i++) {
        right_inner->keys[i - mid - 1].store(keys[i], std::memory_order_relaxed);
      }
      for (int i = mid + 1; i <= total; i++) {
        right_inner->children[i - mid - 1].store(children[i], std::memory_order_release);
      }
      sep = keys[mid];
      right = right_inner;
    }
    // Split reached the root: grow the tree.
    InnerNode* new_root = NewInner();
    new_root->count.store(1, std::memory_order_relaxed);
    new_root->keys[0].store(sep, std::memory_order_relaxed);
    new_root->children[0].store(root_.load(std::memory_order_relaxed), std::memory_order_release);
    new_root->children[1].store(right, std::memory_order_release);
    root_.store(new_root, std::memory_order_release);
  }

  bool RemoveLocked(uint64_t key) {
    // Underflow rebalancing is deliberately omitted: separators are removed
    // only on leaf merges, which are rare, and an underfull DRAM node costs
    // memory, not correctness. Leaves are never unlinked so iteration stays
    // valid.
    MutPath path;
    LeafNode* leaf = DescendToLeafMut(key, &path);
    int count = leaf->count.load(std::memory_order_relaxed);
    int pos = LowerBoundLocked(leaf->keys, count, key);
    if (pos >= count || leaf->keys[pos].load(std::memory_order_relaxed) != key) {
      return false;
    }
    ShiftLeft(leaf->keys, pos, count);
    ShiftLeft(leaf->values, pos, count);
    leaf->count.store(count - 1, std::memory_order_relaxed);
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  mutable sync::SharedMutex mu_{"inner.mu"};
  mutable sync::SeqLock version_{"inner.seq"};
  // Node fields and the bookkeeping below are read by optimistic descents
  // (and written once in the constructor), so they stay un-GUARDED_BY — the
  // seqlock validate, not the lock discipline, is what makes reads sound.
  std::atomic<Node*> root_{nullptr};
  std::atomic<size_t> size_{0};
  uint64_t inner_count_ = 0;
  uint64_t leaf_count_ = 0;
  std::vector<Node*> all_nodes_;
};

}  // namespace cclbt::kvindex

#endif  // SRC_KVINDEX_DRAM_BTREE_H_
