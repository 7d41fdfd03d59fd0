// Persistent leaf node of CCL-BTree (paper §4.1, Figure 7(b)).
//
// Each leaf is exactly 256 B — one XPLine — so a batch flush of buffered KVs
// touches a single XPLine. Layout:
//
//   [ meta: 8 B ]  14-bit validity bitmap + 48-bit next pointer, packed into
//                  one word so split/merge can commit linkage + visibility
//                  with a single atomic 8 B store (paper §4.2).
//   [ timestamp: 8 B ]  flush timestamp for failure recovery (§3.3).
//   [ fingerprints: 14 x 1 B ]  per-slot key hashes (FPTree-style filter).
//   [ padding: 2 B ]
//   [ kvs: 14 x 16 B ]  unsorted KV slots.
#ifndef SRC_CORE_LEAF_NODE_H_
#define SRC_CORE_LEAF_NODE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/common/fingerprint.h"
#include "src/common/simd.h"
#include "src/kvindex/kv_index.h"

namespace cclbt::core {

inline constexpr int kLeafSlots = 14;
inline constexpr uint64_t kLeafBytes = 256;

// meta word: bits [0,14) validity bitmap, bits [14,62) next-leaf pool offset
// divided by 256 (leaves are 256 B aligned), bits [62,64) spare.
inline constexpr uint64_t kBitmapMask = (1ULL << kLeafSlots) - 1;

// Cacheline of KV slot `slot`: line 0 holds the header plus slots 0-1; slots
// 2-5, 6-9 and 10-13 occupy lines 1-3.
inline uint32_t LineOfSlot(int slot) { return static_cast<uint32_t>((32 + 16 * slot) / 64); }

inline uint64_t MetaBitmap(uint64_t meta) { return meta & kBitmapMask; }
inline uint64_t MetaNextOffset(uint64_t meta) { return ((meta >> 14) & ((1ULL << 48) - 1)) << 8; }
inline uint64_t MakeMeta(uint64_t bitmap, uint64_t next_offset) {
  return (bitmap & kBitmapMask) | (((next_offset >> 8) & ((1ULL << 48) - 1)) << 14);
}

struct alignas(kLeafBytes) PmLeaf {
  std::atomic<uint64_t> meta;
  uint64_t timestamp;
  uint8_t fingerprints[kLeafSlots];
  uint8_t padding[2];
  kvindex::KeyValue kvs[kLeafSlots];

  uint64_t bitmap() const { return MetaBitmap(meta.load(std::memory_order_acquire)); }
  uint64_t next_offset() const { return MetaNextOffset(meta.load(std::memory_order_acquire)); }

  int ValidCount() const { return __builtin_popcountll(bitmap()); }

  // Valid slots holding a live value. A valid slot with value 0 is a *fence
  // entry*: a tombstoned key kept in place because it is (or was) the leaf's
  // minimum — removing it would break the min-key == low-bound property that
  // failure recovery relies on for routing WAL entries (see
  // CclBTree::BatchInsertLeaf).
  int LiveCount() const {
    int live = 0;
    for (uint64_t bits = bitmap(); bits != 0; bits &= bits - 1) {
      if (kvs[__builtin_ctzll(bits)].value != 0) {
        live++;
      }
    }
    return live;
  }

  // Slot holding `key`, or -1. Fingerprint-filtered scan of the unsorted
  // slots (the filter plus bitmap live in the header cacheline, §4.3). The
  // fingerprint filter is one 16 B SIMD compare (fingerprints + padding are
  // 16 contiguous bytes); only fingerprint hits touch the KV lines.
  int FindSlot(uint64_t key) const { return FindSlot(key, bitmap()); }
  // The same probe over the slots set in `valid`, a batch's staged bitmap.
  int FindSlot(uint64_t key, uint64_t valid) const {
    auto bits = static_cast<uint32_t>(valid);
    uint8_t fp = Fingerprint8(key);
    for (uint32_t cand = simd::FpMatch16(fingerprints, fp, bits); cand != 0; cand &= cand - 1) {
      int slot = __builtin_ctz(cand);
      if (kvs[slot].key == key) {
        return slot;
      }
    }
    return -1;
  }

  // First invalid slot, or -1 if full.
  int FreeSlot() const {
    uint64_t bits = bitmap();
    if (bits == kBitmapMask) {
      return -1;
    }
    return __builtin_ctzll(~bits & kBitmapMask);
  }

  // Smallest valid key; `found`=false for an empty leaf. Branchless SIMD min
  // over the unsorted slots (scalar fallback iterates set bits only). A key
  // of ~0ULL in a non-empty leaf is reported found — kvindex keys never take
  // that value (they are PM pool offsets / user keys below 2^62).
  uint64_t MinKey(bool* found) const {
    uint32_t bits = static_cast<uint32_t>(bitmap());
    if (bits == 0) {
      *found = false;
      return ~0ULL;
    }
    *found = true;
    return simd::MinKeyStride2(reinterpret_cast<const uint64_t*>(kvs), kLeafSlots, bits);
  }
};

static_assert(sizeof(PmLeaf) == kLeafBytes, "leaf must be exactly one XPLine");
static_assert(sizeof(kvindex::KeyValue) == 16 && offsetof(kvindex::KeyValue, key) == 0,
              "SIMD probes assume {key,value} pairs at 16 B stride");
static_assert(offsetof(PmLeaf, kvs) - offsetof(PmLeaf, fingerprints) >= 16,
              "FpMatch16 reads 16 B starting at fingerprints");

}  // namespace cclbt::core

#endif  // SRC_CORE_LEAF_NODE_H_
