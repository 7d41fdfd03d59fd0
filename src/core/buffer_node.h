// DRAM buffer node (paper §3.2, Figure 7(a)): one per leaf, sitting between
// the last-level inner nodes and the PM leaf. Serves two purposes: merging
// writes so they flush to the leaf's XPLine in one batch, and caching the
// most recent KVs for reads.
//
// The slot protocol (Upsert, built on UpsertSlot, Put and Flush; the node
// locked) is the one write path of CCL-BTree and CCL-Hash, and recovery's
// replay stages and flushes through Put and Unflushed: slots [0, pos) hold
// unflushed KVs, each tagged with the epoch of its log entry; slots
// [pos, nbatch) cache flushed leaf state; a key is in at most one slot. With
// N_batch = 0 every upsert is a trigger write (the unbuffered "Base" arm).
//
// The paper compresses {leaf pointer, version lock, epoch bitmap, position}
// into an 8 B header plus N_batch KV slots; we keep the fields addressable
// (slots are atomics so optimistic readers are race-free) and account DRAM
// consumption at the paper's packed size (see CclBTree::Footprint).
#ifndef SRC_CORE_BUFFER_NODE_H_
#define SRC_CORE_BUFFER_NODE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <new>
#include <span>

#include "src/common/lock.h"
#include "src/common/simd.h"
#include "src/core/leaf_node.h"

namespace cclbt::core {

// Tombstone value: a delete is an upsert of value 0 (paper §4.2).
inline constexpr uint64_t kTombstone = 0;

struct BufferSlot {
  std::atomic<uint64_t> key{0};
  std::atomic<uint64_t> value{0};
};

static_assert(sizeof(BufferSlot) == 16, "SIMD slot probe assumes 16 B {key,value} stride");

class BufferNode {
 public:
  BufferNode(PmLeaf* leaf, int nbatch) : leaf_(leaf), nbatch_(nbatch) {}

  // --- version lock (paper §4.4 Optimization 2) ----------------------------
  // Even version == unlocked. Writers CAS even -> odd; readers snapshot an
  // even version, read optimistically, and revalidate. The PM leaf shares
  // this lock ("the leaf nodes share the version number of their
  // corresponding buffer nodes").
  bool TryLock() TRY_ACQUIRE(version_) { return version_.TryLock(); }
  void Lock() ACQUIRE(version_) { version_.Lock(); }
  void Unlock() RELEASE(version_) { version_.Unlock(); }

  uint64_t ReadBegin() const { return version_.ReadBegin(); }
  bool ReadValidate(uint64_t snapshot) const { return version_.ReadValidate(snapshot); }

  // --- fields ---------------------------------------------------------------
  PmLeaf* leaf() const { return leaf_; }
  int nbatch() const { return nbatch_; }

  // Separator key this node is registered under in the inner index.
  uint64_t sep() const { return sep_; }
  void set_sep(uint64_t sep) { sep_ = sep; }

  // Replay filter of the last recovery (CclIndex::Replay): the pre-crash
  // timestamp of the leaf (of the hash's bucket chain), or the index's
  // persisted timestamp floor if larger. A tree split copies it to the new
  // right-hand node.
  uint64_t recovery_orig_ts() const { return recovery_orig_ts_; }
  void set_recovery_orig_ts(uint64_t ts) { recovery_orig_ts_ = ts; }

  int pos() const { return pos_.load(std::memory_order_acquire); }
  void set_pos(int p) { pos_.store(p, std::memory_order_release); }

  uint32_t epoch_bits() const { return epoch_bits_.load(std::memory_order_acquire); }
  void SetEpochBit(int slot, uint32_t epoch) {
    uint32_t bits = epoch_bits_.load(std::memory_order_relaxed);
    uint32_t updated = (bits & ~(1u << slot)) | (epoch << slot);
    epoch_bits_.store(updated, std::memory_order_release);
  }
  uint32_t EpochBit(int slot) const { return (epoch_bits() >> slot) & 1; }

  bool dead() const { return dead_.load(std::memory_order_acquire); }
  void MarkDead() { dead_.store(true, std::memory_order_release); }

  BufferSlot* slots() { return slots_; }
  const BufferSlot* slots() const { return slots_; }

  // Bitmask of the slots whose key equals `key`. The slots are atomics
  // mutated under the version lock; the SIMD probe reads them with plain
  // vector loads — exactly the optimistic race the version-validation
  // protocol accounts for. Under TSan the scalar loop keeps each access a
  // relaxed atomic load so the race checker sees the protocol, not the
  // vector shortcut.
  uint32_t KeyMatch(uint64_t key) const {
    if constexpr (simd::kTsanBuild) {
      uint32_t out = 0;
      for (int i = 0; i < nbatch_; i++) {
        if (slots_[i].key.load(std::memory_order_relaxed) == key) {
          out |= 1u << i;
        }
      }
      return out;
    } else {
      return simd::KeyMatchStride2(reinterpret_cast<const uint64_t*>(slots_), nbatch_, key,
                                   (1u << nbatch_) - 1);
    }
  }

  // --- slot protocol (node locked) --------------------------------------------
  // The slot an upsert of `key` goes to: the one holding its unflushed
  // value, else slot pos, after slot pos's cached KV overwrites a stale
  // cached copy of `key` elsewhere, so the key stays in one slot. -1 when
  // every slot is unflushed: the upsert is a trigger write.
  int UpsertSlot(uint64_t key) {
    const int pos = this->pos();
    const uint32_t unflushed = (1u << pos) - 1;
    const uint32_t match = KeyMatch(key);
    if ((match & unflushed) != 0) {
      return __builtin_ctz(match & unflushed);
    }
    if (pos == nbatch_) {
      return -1;
    }
    if (const uint32_t stale = match & ~unflushed; stale != 0 && __builtin_ctz(stale) != pos) {
      BufferSlot& copy = slots_[__builtin_ctz(stale)];
      copy.key.store(slots_[pos].key.load(std::memory_order_relaxed), std::memory_order_relaxed);
      copy.value.store(slots_[pos].value.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    }
    return pos;
  }

  // Stores an unflushed KV, logged in `epoch`, in `slot` (from UpsertSlot).
  void Put(int slot, uint64_t key, uint64_t value, uint32_t epoch) {
    slots_[slot].key.store(key, std::memory_order_relaxed);
    slots_[slot].value.store(value, std::memory_order_release);
    SetEpochBit(slot, epoch);
    if (slot == pos()) {
      set_pos(slot + 1);
    }
  }

  // Copies the unflushed KVs, in slot order, to batch[0, pos) and returns
  // pos: the head of every flush batch.
  int Unflushed(kvindex::KeyValue* batch) const {
    const int n = pos();
    for (int i = 0; i < n; i++) {
      batch[i] = {slots_[i].key.load(std::memory_order_relaxed),
                  slots_[i].value.load(std::memory_order_relaxed)};
    }
    return n;
  }

  // Calls write(batch, n) once with the unflushed KVs, then `extra` (at most
  // 8 in all). The slots cache flushed state by then, so `write` may check
  // them against what it wrote: pos is 0 and slot 0 caches extra's first
  // KV, a trigger write, whose key no other slot holds.
  template <typename Write>
  void Flush(std::span<const kvindex::KeyValue> extra, Write&& write) {
    kvindex::KeyValue batch[8];
    int n = Unflushed(batch);
    assert(static_cast<size_t>(n) + extra.size() <= 8);
    for (const kvindex::KeyValue& kv : extra) {
      batch[n++] = kv;
    }
    set_pos(0);
    if (!extra.empty() && nbatch_ > 0) {
      slots_[0].key.store(extra[0].key, std::memory_order_relaxed);
      slots_[0].value.store(extra[0].value, std::memory_order_release);
    }
    write(batch, n);
  }

  // One upsert of the write path (paper §3.2–§3.3); returns whether the
  // node flushed. A buffered KV is logged (log() fails only on an exhausted
  // log slab) before it takes its slot. A trigger write flushes the node
  // with the KV in one write(batch, n) and is logged only when `log_trigger`
  // (naive logging), as the flush makes it durable itself.
  template <typename Log, typename Write>
  bool Upsert(uint64_t key, uint64_t value, uint32_t epoch, bool log_trigger, Log&& log,
              Write&& write) {
    const int slot = UpsertSlot(key);
    if (slot >= 0 || log_trigger) {
      const bool logged = log();
      assert(logged && "log slab exhausted");
      (void)logged;
    }
    if (slot >= 0) {
      Put(slot, key, value, epoch);
      return false;
    }
    const kvindex::KeyValue trigger{key, value};
    Flush({&trigger, 1}, write);
    return true;
  }

  // Blanks every slot and empties the node.
  void Clear() {
    for (int i = 0; i < nbatch_; i++) {
      slots_[i].key.store(0, std::memory_order_relaxed);
      slots_[i].value.store(0, std::memory_order_relaxed);
    }
    set_pos(0);
  }

  // Allocation: slots trail the object (nbatch is fixed per tree).
  static BufferNode* New(PmLeaf* leaf, int nbatch) {
    void* mem =
        ::operator new(sizeof(BufferNode) + sizeof(BufferSlot) * static_cast<size_t>(nbatch));
    auto* node = new (mem) BufferNode(leaf, nbatch);
    for (int i = 0; i < nbatch; i++) {
      new (&node->slots_[i]) BufferSlot();
    }
    return node;
  }
  static void Delete(BufferNode* node) {
    node->~BufferNode();
    ::operator delete(node);
  }

  // DRAM bytes the paper's packed layout would use for this node.
  static uint64_t PackedBytes(int nbatch) { return 8 + 16 * static_cast<uint64_t>(nbatch); }

 private:
  // Shared with the PM leaf; slots_ stay optimistically readable, so they are
  // deliberately not GUARDED_BY (see the SeqLock contract in common/lock.h).
  mutable sync::SeqLock version_{"bn.version"};
  PmLeaf* leaf_;
  int nbatch_;
  uint64_t sep_ = 0;
  uint64_t recovery_orig_ts_ = 0;
  std::atomic<int> pos_{0};
  std::atomic<uint32_t> epoch_bits_{0};
  std::atomic<bool> dead_{false};
  BufferSlot slots_[];  // nbatch entries
};

}  // namespace cclbt::core

#endif  // SRC_CORE_BUFFER_NODE_H_
