// DRAM buffer node (paper §3.2, Figure 7(a)): one per leaf, sitting between
// the last-level inner nodes and the PM leaf. Serves two purposes: merging
// writes so they flush to the leaf's XPLine in one batch, and caching the
// most recent KVs for reads.
//
// The paper compresses {leaf pointer, version lock, epoch bitmap, position}
// into an 8 B header plus N_batch KV slots; we keep the fields addressable
// (slots are atomics so optimistic readers are race-free) and account DRAM
// consumption at the paper's packed size (see CclBTree::Footprint).
#ifndef SRC_CORE_BUFFER_NODE_H_
#define SRC_CORE_BUFFER_NODE_H_

#include <atomic>
#include <cstdint>
#include <new>

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

  // Replay filter of the last recovery (WalSet::Replay): the pre-crash
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
