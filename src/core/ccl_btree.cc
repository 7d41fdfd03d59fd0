#include "src/core/ccl_btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/common/simd.h"
#include "src/pmsim/pmcheck.h"
#include "src/trace/trace.h"

namespace cclbt::core {

CclBTree::CclBTree(kvindex::Runtime& runtime, const TreeOptions& options,
                   kvindex::Lifecycle lifecycle)
    : CclIndex(runtime, options, lifecycle, options.root_slot, kTreeMagic, /*own_words=*/1) {
  // An attached tree binds to the persistent image in Recover(), which
  // validates the root record instead of asserting on it.
  if (lifecycle == kvindex::Lifecycle::kCreate) {
    Create();
  }
}

void CclBTree::Format(uint64_t* own) {
  head_leaf_ = AllocLeaf(home_socket_);
  assert(head_leaf_ != nullptr);
  std::memset(static_cast<void*>(head_leaf_), 0, kLeafBytes);
  {
    // Formatting persist: the empty head leaf must be durable even though a
    // fresh pool already holds zeroes (a reused slot would not).
    pmsim::PmCheckExpect format_expect(pmsim::PmCheckClass::kRedundantFlush);
    pmsim::Persist(head_leaf_, kLeafBytes);
  }
  own[0] = LeafOffset(head_leaf_);
  inner_.Insert(0, NewBufferNode(head_leaf_, /*sep=*/0, /*recovery_ts=*/0));
}

CclBTree::~CclBTree() {
  sync::LockGuard<sync::Mutex> guard(all_bns_mu_);
  for (BufferNode* bn : all_bns_) {
    BufferNode::Delete(bn);
  }
}

// --- helpers -----------------------------------------------------------------

PmLeaf* CclBTree::AllocLeaf(int socket) {
  return static_cast<PmLeaf*>(leaf_slab_->Allocate(socket));
}

BufferNode* CclBTree::NewBufferNode(PmLeaf* leaf, uint64_t sep, uint64_t recovery_ts) {
  BufferNode* bn = BufferNode::New(leaf, options_.nbatch);
  bn->set_sep(sep);
  bn->set_recovery_orig_ts(recovery_ts);
  {
    sync::LockGuard<sync::Mutex> guard(all_bns_mu_);
    all_bns_.push_back(bn);
  }
  live_bn_count_.fetch_add(1, std::memory_order_relaxed);
  return bn;
}

uint64_t CclBTree::LeafOffset(const PmLeaf* leaf) const { return rt_.pool().ToOffset(leaf); }

PmLeaf* CclBTree::LeafAt(uint64_t offset) const {
  return static_cast<PmLeaf*>(rt_.pool().ToAddr(offset));
}

// --- write path ----------------------------------------------------------------

BufferNode* CclBTree::RouteAndLock(uint64_t key) {
  trace::TraceScope scope(trace::Component::kInner);
  for (;;) {
    bool found = false;
    BufferNode* bn = inner_.RouteFloor(key, &found);
    assert(found && "sentinel separator 0 must exist");
    if (!bn->TryLock()) {
      std::this_thread::yield();
      continue;
    }
    // Re-validate under the lock: the node may have died (merge) or split
    // away the range containing `key` between routing and locking.
    if (bn->dead() || inner_.RouteFloor(key) != bn) {
      bn->Unlock();
      continue;
    }
    return bn;
  }
}

BufferNode* CclBTree::LockNode(uint64_t key) {
  ChargeDram(8);  // inner-index descent
  return RouteAndLock(key);
}

void CclBTree::AfterUpsert(BufferNode* bn, bool flushed) {
  uint64_t sep = bn->sep();
  bool underflow = flushed && bn->leaf()->LiveCount() < kLeafSlots / 2 && sep != 0;
  bn->Unlock();
  if (underflow) {
    TryMergeLeft(sep);
  }
}

void CclBTree::WriteBatch(BufferNode* bn, kvindex::KeyValue* kvs, int n, uint64_t ts) {
  BatchInsertLeaf(bn, kvs, n, ts);
  if (ts == 0) {
    return;  // replay: recovery empties the node after the write
  }
  // The slots keep serving reads as a cache (§3.2: "even when the buffered
  // KVs are flushed to the leaf nodes, they are still reserved in the buffer
  // nodes until overwritten"). A slot is only a valid cache entry while it
  // mirrors this leaf: a split inside the batch moves upper-range keys to a
  // new leaf, and a later merge could make such out-of-range slots reachable
  // again with stale values — so revalidate every slot against the leaf and
  // blank the ones that no longer mirror it.
  BufferSlot* slots = bn->slots();
  PmLeaf* leaf = bn->leaf();
  for (int i = 0; i < bn->nbatch(); i++) {
    uint64_t cached_key = slots[i].key.load(std::memory_order_relaxed);
    if (cached_key == 0) {
      continue;
    }
    int slot = leaf->FindSlot(cached_key);
    uint64_t leaf_value = slot >= 0 ? leaf->kvs[slot].value : kTombstone;
    uint64_t cached_value = slots[i].value.load(std::memory_order_relaxed);
    if (slot < 0 && cached_value == kTombstone) {
      continue;  // cached tombstone of an absent key still mirrors the leaf
    }
    if (slot < 0 || leaf_value != cached_value) {
      slots[i].key.store(0, std::memory_order_relaxed);
      slots[i].value.store(0, std::memory_order_relaxed);
    }
  }
}

void CclBTree::BatchInsertLeaf(BufferNode* bn, kvindex::KeyValue* kvs, int n, uint64_t ts) {
  trace::TraceScope scope(trace::Component::kLeaf);
  PmLeaf* leaf = bn->leaf();
  // The writer reads the header (bitmap + fingerprints) before modifying.
  pmsim::ReadPm(leaf, 64);
  uint64_t bitmap = leaf->bitmap();
  // A slot this batch clears keeps its old key valid in PM until the header
  // commit below, so only a later batch may reuse it: a crash after the data
  // lines would leave the slot valid with a new key under the old key's
  // fingerprint. The inserts fit in the slots free before the batch.
  const uint64_t committed = bitmap;

  // Dry pass: how many fresh slots does this batch need?
  int need = 0;
  for (int i = 0; i < n; i++) {
    if (kvs[i].value == kTombstone) {
      continue;
    }
    if (leaf->FindSlot(kvs[i].key, bitmap) < 0) {
      need++;
    }
  }
  int free_slots = kLeafSlots - __builtin_popcountll(bitmap);
  if (need > free_slots) {
    // Logless split (§4.2), then dispatch the batch across the two halves.
    BufferNode* right_bn = SplitLeaf(bn);  // returned locked
    uint64_t split_key = right_bn->sep();
    kvindex::KeyValue left_kvs[8];
    kvindex::KeyValue right_kvs[8];
    int nl = 0;
    int nr = 0;
    for (int i = 0; i < n; i++) {
      if (kvs[i].key < split_key) {
        left_kvs[nl++] = kvs[i];
      } else {
        right_kvs[nr++] = kvs[i];
      }
    }
    if (nl > 0) {
      BatchInsertLeaf(bn, left_kvs, nl, ts);
    }
    if (nr > 0) {
      BatchInsertLeaf(right_bn, right_kvs, nr, ts);
    }
    right_bn->Unlock();
    return;
  }

  // Step 1 (paper §4.2): write the entries into the data region, recording
  // the modified cachelines.
  uint32_t dirty_lines = 0;
  bool header_changed = false;
  // Set when a store knowingly rewrites bytes equal to the line's current
  // content (re-deleting a fence entry, re-upserting an unchanged KV): the
  // line may then be byte-identical to its durable image, and the step-2
  // flush — kept unconditional because the flush schedule is part of the
  // published figures — would be reported by pmcheck as a clean-line flush.
  bool identical_rewrite = false;
  for (int i = 0; i < n; i++) {
    const kvindex::KeyValue& kv = kvs[i];
    int slot = leaf->FindSlot(kv.key, bitmap);
    if (kv.value == kTombstone) {
      if (slot >= 0) {
        // Deleting the leaf's minimum key would raise the recovery-time
        // separator (min key) above the runtime separator (split key) and
        // misroute WAL replay. Keep such keys as fence entries: valid slot,
        // value 0, invisible to lookups and scans.
        uint64_t min_key = simd::MinKeyStride2(reinterpret_cast<const uint64_t*>(leaf->kvs),
                                               kLeafSlots, static_cast<uint32_t>(bitmap));
        if (leaf->kvs[slot].key == min_key) {
          identical_rewrite |= leaf->kvs[slot].value == kTombstone;
          leaf->kvs[slot].value = kTombstone;
          dirty_lines |= 1u << LineOfSlot(slot);
        } else {
          bitmap &= ~(1ULL << slot);
          header_changed = true;
        }
      }
      continue;
    }
    if (slot >= 0) {
      identical_rewrite |= leaf->kvs[slot].value == kv.value;
      leaf->kvs[slot].value = kv.value;  // in-place update, 8 B atomic width
      dirty_lines |= 1u << LineOfSlot(slot);
      continue;
    }
    int free = __builtin_ctzll(~(bitmap | committed) & kBitmapMask);
    identical_rewrite |= leaf->kvs[free].key == kv.key && leaf->kvs[free].value == kv.value;
    leaf->kvs[free] = kv;
    leaf->fingerprints[free] = Fingerprint8(kv.key);
    bitmap |= 1ULL << free;
    dirty_lines |= 1u << LineOfSlot(free);
    header_changed = true;
  }

  // Step 2: persist the modified data cachelines with one fence.
  auto* lines = reinterpret_cast<const std::byte*>(leaf);
  bool flushed_any = false;
  {
    std::optional<pmsim::PmCheckExpect> rewrite_expect;
    if (identical_rewrite) {
      rewrite_expect.emplace(pmsim::PmCheckClass::kRedundantFlush);
    }
    for (uint32_t line = 1; line < 4; line++) {  // header line is flushed in step 3
      if ((dirty_lines >> line) & 1) {
        pmsim::FlushLine(lines + line * 64);
        flushed_any = true;
      }
    }
  }
  if (flushed_any) {
    pmsim::Fence();
  }

  // Step 3: commit — update timestamp then publish the new bitmap with one
  // atomic meta store, persist the header line. Nothing in this batch is
  // visible before the meta line lands (§4.2). A replay batch (stamped 0)
  // keeps the timestamp, and if it changed nothing in line 0 it has nothing
  // to commit.
  if (ts == 0 && !header_changed && (dirty_lines & 1) == 0) {
    return;
  }
  if (ts != 0) {
    leaf->timestamp = ts;
  }
  uint64_t next_offset = leaf->next_offset();
  leaf->meta.store(MakeMeta(bitmap, next_offset), std::memory_order_release);
  pmsim::FlushLine(leaf);
  pmsim::Fence();
}

BufferNode* CclBTree::SplitLeaf(BufferNode* bn) {
  trace::TraceScope scope(trace::Component::kLeaf);
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  PmLeaf* leaf = bn->leaf();
  uint64_t bitmap = leaf->bitmap();
  int valid = __builtin_popcountll(bitmap);
  assert(valid > 1 && "cannot split a leaf with fewer than two keys");

  // Median split key over the (unsorted) valid entries.
  uint64_t keys[16];
  int n = 0;
  for (uint64_t bits = bitmap; bits != 0; bits &= bits - 1) {
    keys[n++] = leaf->kvs[__builtin_ctzll(bits)].key;
  }
  std::sort(keys, keys + n);
  uint64_t split_key = keys[n / 2];
  ChargeDram(static_cast<uint64_t>(n) * 4);

  // Build the new right leaf: compact copy of entries >= split_key.
  PmLeaf* new_leaf = AllocLeaf(ctx->socket());
  assert(new_leaf != nullptr && "PM exhausted");
  std::memset(static_cast<void*>(new_leaf), 0, kLeafBytes);
  uint64_t new_bitmap = 0;
  uint64_t old_bitmap = bitmap;
  int out = 0;
  for (uint64_t bits = bitmap; bits != 0; bits &= bits - 1) {
    int slot = __builtin_ctzll(bits);
    if (leaf->kvs[slot].key >= split_key) {
      new_leaf->kvs[out] = leaf->kvs[slot];
      new_leaf->fingerprints[out] = leaf->fingerprints[slot];
      new_bitmap |= 1ULL << out;
      old_bitmap &= ~(1ULL << slot);
      out++;
    }
  }
  new_leaf->timestamp = leaf->timestamp;
  new_leaf->meta.store(MakeMeta(new_bitmap, leaf->next_offset()), std::memory_order_release);
  // Persist the entire new leaf with a single fence; it is unreachable until
  // the old leaf's meta word lands, so no log is needed (§4.2). The tail
  // lines of a fresh slab slot are all-zero and content-equal to media, which
  // pmcheck flags as clean-line flushes; the whole-leaf persist is kept
  // regardless so the split's flush count — and every published virtual-time
  // figure — matches the paper's batch-persist description.
  {
    pmsim::PmCheckExpect split_expect(pmsim::PmCheckClass::kRedundantFlush);
    for (int line = 0; line < 4; line++) {
      pmsim::FlushLine(reinterpret_cast<const std::byte*>(new_leaf) + line * 64);
    }
  }
  pmsim::Fence();

  // Atomically shrink the old leaf and link the new one: one 8 B meta store
  // carries both the reduced bitmap and the new next pointer. The timestamp
  // must NOT advance here: the split commit lands before the flush batch is
  // dispatched into the two halves, and a crash in that window would leave a
  // durable timestamp covering WAL entries that never reached a leaf —
  // recovery replay would skip them (found by the crash-injection matrix).
  // Each half's BatchInsertLeaf publishes the flush timestamp atomically
  // with its own data commit instead.
  leaf->meta.store(MakeMeta(old_bitmap, LeafOffset(new_leaf)), std::memory_order_release);
  pmsim::FlushLine(leaf);
  pmsim::Fence();

  // Publish the DRAM side: new buffer node + separator.
  BufferNode* right_bn = NewBufferNode(new_leaf, split_key, bn->recovery_orig_ts());
  right_bn->Lock();  // returned locked; caller dispatches pending KVs
  inner_.Insert(split_key, right_bn);
  splits_.fetch_add(1, std::memory_order_relaxed);
  trace::Emit(trace::EventType::kLeafSplit, split_key);
  return right_bn;
}

void CclBTree::TryMergeLeft(uint64_t sep) {
  trace::TraceScope scope(trace::Component::kLeaf);
  assert(sep != 0);
  for (;;) {
    bool found = false;
    BufferNode* left = inner_.RouteFloor(sep - 1, &found);
    if (!found) {
      return;
    }
    BufferNode* right = nullptr;
    if (!inner_.Get(sep, &right)) {
      return;  // Already merged away.
    }
    if (left == right) {
      return;
    }
    // Lock in key order (left separator < right separator): no deadlock.
    if (!left->TryLock()) {
      std::this_thread::yield();
      continue;
    }
    if (left->dead() || inner_.RouteFloor(sep - 1) != left) {
      left->Unlock();
      continue;
    }
    if (!right->TryLock()) {
      left->Unlock();
      continue;
    }
    if (right->dead()) {
      right->Unlock();
      left->Unlock();
      return;
    }
    // The merge commit below raises the left leaf's timestamp to cover the
    // right leaf's flushed entries. Any *unflushed* left-buffer entry has a
    // smaller timestamp and would be skipped by the recovery replay filter,
    // so drain the left buffer first (its flush timestamp is globally fresh).
    if (left->pos() > 0) {
      FlushNode(left);
    }
    PmLeaf* left_leaf = left->leaf();
    PmLeaf* right_leaf = right->leaf();
    // Conditions (paper §4.2): right still underutilized, physically adjacent
    // (the left-buffer flush above may have split the left leaf, which the
    // adjacency check detects), right's buffer drained, and the union fits.
    int left_valid = left_leaf->ValidCount();
    int right_live = right_leaf->LiveCount();
    if (LeafOffset(right_leaf) != left_leaf->next_offset() || right->pos() != 0 ||
        right_leaf->LiveCount() >= kLeafSlots / 2 || left_valid + right_live > kLeafSlots) {
      right->Unlock();
      left->Unlock();
      return;
    }

    // Move the right leaf's live entries into free slots of the left leaf
    // (fence entries — tombstoned boundary keys — die with the right leaf).
    pmsim::ReadPm(right_leaf, kLeafBytes);
    uint64_t left_bitmap = left_leaf->bitmap();
    uint64_t right_bitmap = right_leaf->bitmap();
    uint32_t dirty_lines = 0;
    for (uint64_t bits = right_bitmap; bits != 0; bits &= bits - 1) {
      int slot = __builtin_ctzll(bits);
      if (right_leaf->kvs[slot].value == kTombstone) {
        continue;
      }
      int free = __builtin_ctzll(~left_bitmap & kBitmapMask);
      left_leaf->kvs[free] = right_leaf->kvs[slot];
      left_leaf->fingerprints[free] = right_leaf->fingerprints[slot];
      left_bitmap |= 1ULL << free;
      dirty_lines |= 1u << LineOfSlot(free);
    }
    bool flushed_any = false;
    {
      // A merge often reunites entries that an earlier split moved out of this
      // very leaf: ctz slot choice puts them back into the slots they came
      // from, so a data line can be byte-identical to its durable image. The
      // merge cannot diff against media, and the flush schedule is part of
      // the published figures — annotate instead of skipping.
      pmsim::PmCheckExpect merge_expect(pmsim::PmCheckClass::kRedundantFlush);
      for (uint32_t line = 1; line < 4; line++) {
        if ((dirty_lines >> line) & 1) {
          pmsim::FlushLine(reinterpret_cast<const std::byte*>(left_leaf) + line * 64);
          flushed_any = true;
        }
      }
    }
    if (flushed_any) {
      pmsim::Fence();
    }
    // Single 8 B commit: validates the moved entries in the left leaf AND
    // detaches the right leaf from the linked list (§4.2).
    left_leaf->timestamp = std::max(left_leaf->timestamp, right_leaf->timestamp);
    left_leaf->meta.store(MakeMeta(left_bitmap, right_leaf->next_offset()),
                          std::memory_order_release);
    pmsim::FlushLine(left_leaf);
    pmsim::Fence();

    inner_.Remove(sep);
    right->MarkDead();
    live_bn_count_.fetch_sub(1, std::memory_order_relaxed);
    leaf_slab_->Free(right_leaf);
    merges_.fetch_add(1, std::memory_order_relaxed);
    trace::Emit(trace::EventType::kLeafMerge, sep);
    right->Unlock();
    left->Unlock();
    return;
  }
}

// --- read path ------------------------------------------------------------------

bool CclBTree::Lookup(uint64_t key, uint64_t* value_out) {
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  assert(ctx != nullptr);
  for (;;) {
    ChargeDram(8);  // inner-index descent
    bool found = false;
    BufferNode* bn = inner_.RouteFloor(key, &found);
    if (!found) {
      return false;
    }
    uint64_t snapshot = bn->ReadBegin();
    if (bn->dead() || inner_.RouteFloor(key) != bn) {
      continue;
    }
    // Start the PM leaf's header line (bitmap + fingerprints) toward the
    // cache now: on a buffer miss the probe below needs it immediately.
    __builtin_prefetch(bn->leaf());
    // Buffer first: slots [0,pos) hold the newest unflushed values, slots
    // [pos,nbatch) mirror flushed leaf state (§3.2/§4.3).
    ChargeDram(static_cast<uint64_t>(bn->nbatch()));
    if (uint32_t match = bn->KeyMatch(key); match != 0) {
      uint64_t value = bn->slots()[__builtin_ctz(match)].value.load(std::memory_order_acquire);
      if (!bn->ReadValidate(snapshot)) {
        continue;  // Retry from routing.
      }
      dram_hits_.fetch_add(1, std::memory_order_relaxed);
      if (value == kTombstone) {
        return false;
      }
      *value_out = value;
      return true;
    }
    if (!bn->ReadValidate(snapshot)) {
      continue;
    }
    // Miss in the buffer: one XPLine read from the PM leaf, filtered by the
    // header's bitmap + fingerprints.
    PmLeaf* leaf = bn->leaf();
    pmsim::ReadPm(leaf, kLeafBytes);
    int slot = leaf->FindSlot(key);
    uint64_t value = slot >= 0 ? leaf->kvs[slot].value : 0;
    if (!bn->ReadValidate(snapshot)) {
      continue;
    }
    if (slot < 0 || value == kTombstone) {
      return false;  // absent, or a fence entry (tombstoned boundary key)
    }
    *value_out = value;
    return true;
  }
}

size_t CclBTree::Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) {
  assert(pmsim::ThreadContext::Current() != nullptr);
  size_t produced = 0;
  uint64_t cursor = start_key;
  // One leaf's live entries plus the buffered ones not already in it.
  kvindex::KeyValue window[kLeafSlots + 8];
  for (;;) {
    if (produced >= count) {
      break;
    }
    bool found = false;
    BufferNode* bn = inner_.RouteFloor(cursor, &found);
    if (!found) {
      break;
    }
    uint64_t next_sep = 0;
    BufferNode* next_bn = nullptr;
    bool have_next = inner_.NextEntry(cursor, &next_sep, &next_bn);

    // Optimistically snapshot the buffer node + leaf.
    size_t n = 0;
    uint64_t snapshot = bn->ReadBegin();
    if (bn->dead()) {
      continue;  // Re-route: the separator map has changed.
    }
    PmLeaf leaf_copy;
    std::memcpy(static_cast<void*>(&leaf_copy), static_cast<const void*>(bn->leaf()), kLeafBytes);
    pmsim::ReadPm(bn->leaf(), kLeafBytes);
    kvindex::KeyValue buffered[8];
    const int pos = bn->Unflushed(buffered);
    if (!bn->ReadValidate(snapshot)) {
      continue;
    }

    // Merge: leaf entries, overlaid by the newest buffered values (§4.3 —
    // "retain the entries stored in the buffer nodes since [they] always
    // store the latest versions").
    for (uint64_t bits = MetaBitmap(leaf_copy.meta.load(std::memory_order_relaxed)); bits != 0;
         bits &= bits - 1) {
      window[n++] = leaf_copy.kvs[__builtin_ctzll(bits)];
    }
    for (int i = 0; i < pos; i++) {
      bool replaced = false;
      for (size_t j = 0; j < n; j++) {
        if (window[j].key == buffered[i].key) {
          window[j].value = buffered[i].value;
          replaced = true;
          break;
        }
      }
      if (!replaced) {
        window[n++] = buffered[i];
      }
    }
    std::sort(window, window + n,
              [](const kvindex::KeyValue& a, const kvindex::KeyValue& b) { return a.key < b.key; });
    ChargeDram(n * 6 + static_cast<uint64_t>(bn->nbatch()));

    for (const auto& entry : std::span(window, n)) {
      if (entry.key < cursor || entry.value == kTombstone) {
        continue;
      }
      if (have_next && entry.key >= next_sep) {
        break;  // Belongs to a later window (keys moved by a racing split).
      }
      out[produced++] = entry;
      if (produced >= count) {
        break;
      }
    }
    if (!have_next) {
      break;
    }
    cursor = next_sep;
  }
  return produced;
}

// --- recovery ---------------------------------------------------------------------

bool CclBTree::Rebuild(const uint64_t* own, uint64_t floor, uint64_t* max_ts) {
  if (!leaf_slab_->IsSlot(own[0])) {
    return false;  // the head leaf is no leaf-slab slot
  }
  head_leaf_ = LeafAt(own[0]);
  // Every leaf the walk has visited, so a next pointer back to one ends it;
  // minus the unlinked empty leaves, that is the reachable set.
  std::unordered_set<uint64_t> walked{LeafOffset(head_leaf_)};
  std::vector<uint64_t> unlinked;
  *max_ts = std::max(*max_ts, head_leaf_->timestamp);
  BufferNode* head_bn = NewBufferNode(head_leaf_, 0, std::max(head_leaf_->timestamp, floor));
  inner_.Insert(0, head_bn);

  PmLeaf* prev = head_leaf_;
  uint64_t next_offset = head_leaf_->next_offset();
  uint64_t prev_min = 0;
  while (next_offset != 0) {
    if (!leaf_slab_->IsSlot(next_offset)) {
      return false;  // a next pointer outside the leaf slab
    }
    if (!walked.insert(next_offset).second) {
      return false;  // the leaf list loops back on itself
    }
    PmLeaf* leaf = LeafAt(next_offset);
    pmsim::ReadPm(leaf, kLeafBytes);
    *max_ts = std::max(*max_ts, leaf->timestamp);
    bool has_min = false;
    uint64_t min_key = leaf->MinKey(&has_min);
    if (!has_min) {
      // Empty leaf: unlink and let the slab reclaim it (it stays invisible).
      unlinked.push_back(next_offset);
      prev->meta.store(MakeMeta(prev->bitmap(), leaf->next_offset()), std::memory_order_release);
      pmsim::FlushLine(prev);
      pmsim::Fence();
      next_offset = leaf->next_offset();
      continue;
    }
    if (min_key <= prev_min) {
      return false;  // the leaf list must be ordered by key
    }
    prev_min = min_key;
    BufferNode* bn = NewBufferNode(leaf, min_key, std::max(leaf->timestamp, floor));
    inner_.Insert(min_key, bn);
    prev = leaf;
    next_offset = leaf->next_offset();
  }
  for (uint64_t offset : unlinked) {
    walked.erase(offset);
  }
  leaf_slab_->Recover([this, &walked](const void* slot) {
    return walked.contains(rt_.pool().ToOffset(slot));
  });
  return true;
}

// --- introspection ---------------------------------------------------------------

std::vector<BufferNode*> CclBTree::Nodes() const {
  std::vector<BufferNode*> bns;
  bns.reserve(static_cast<size_t>(live_bn_count_.load(std::memory_order_relaxed)) + 16);
  inner_.ForEachFrom(0, [&bns](uint64_t /*sep*/, BufferNode* bn) {
    bns.push_back(bn);
    return true;
  });
  return bns;
}

void CclBTree::SampleGauges(std::vector<std::pair<std::string, uint64_t>>* out) const {
  out->emplace_back("gc_rounds", gc_rounds());
  out->emplace_back("log_live_bytes", log_live_bytes());
  out->emplace_back("log_peak_bytes", log_peak_bytes());
  out->emplace_back("leaf_bytes", leaf_bytes());
  out->emplace_back("buffer_flushes", buffer_flushes());
  out->emplace_back("splits", splits());
  out->emplace_back("merges", merges());
  out->emplace_back("dram_hits", dram_hits());
  // Value-store health: allocation growth plus the bytes orphaned by
  // restarts (Runtime::Reopen region leak) — pmctl top/series watch the
  // latter grow across repeated crash-recover cycles.
  out->emplace_back("valuestore_bytes", rt_.values().allocated_bytes());
  out->emplace_back("valuestore_leaked_bytes", rt_.values().leaked_bytes());
}

kvindex::MemoryFootprint CclBTree::Footprint() const {
  kvindex::MemoryFootprint footprint;
  footprint.dram_bytes =
      inner_.MemoryBytes() +
      live_bn_count_.load(std::memory_order_relaxed) * BufferNode::PackedBytes(options_.nbatch);
  footprint.pm_bytes = rt_.pool().AllocatedBytes();
  return footprint;
}

bool CclBTree::CheckInvariants() const {
  const PmLeaf* leaf = head_leaf_;
  uint64_t prev_max = 0;
  bool first = true;
  while (leaf != nullptr) {
    uint64_t bits = leaf->bitmap();
    uint64_t local_min = ~0ULL;
    uint64_t local_max = 0;
    for (uint64_t walk = bits; walk != 0; walk &= walk - 1) {
      int slot = __builtin_ctzll(walk);
      uint64_t key = leaf->kvs[slot].key;
      if (leaf->fingerprints[slot] != Fingerprint8(key)) {
        return false;
      }
      local_min = std::min(local_min, key);
      local_max = std::max(local_max, key);
    }
    if (bits != 0) {
      if (!first && local_min <= prev_max) {
        return false;  // Inter-leaf ordering violated.
      }
      prev_max = local_max;
      first = false;
    }
    uint64_t next = leaf->next_offset();
    leaf = next == 0 ? nullptr : LeafAt(next);
  }
  return true;
}

}  // namespace cclbt::core
