// Model of one DIMM's on-chip write-combining buffer (the XPBuffer).
//
// Behaviour modeled (per Yang et al. FAST'20 and the paper's §2.1):
//  * 16 KB of 256 B XPLine entries, fully associative, LRU replacement.
//  * A cacheline flush whose XPLine is resident merges into the entry (no
//    media traffic).
//  * A miss on a full buffer evicts the LRU entry: one 256 B media write,
//    plus a 256 B media read first if the evicted XPLine was only partially
//    overwritten (read-modify-write).
//  * Reads are served from the buffer when the XPLine is resident.
//
// Implementation: every structure is preallocated at construction — a flat
// open-addressing table (linear probing, backward-shift deletion) indexing
// into a slot array whose entries form an intrusive doubly-linked LRU list.
// OnLineFlush/OnRead perform zero heap allocations and touch one short probe
// sequence plus a couple of slot-array cachelines. LRU order, eviction
// choice and RMW classification are identical to the previous
// std::list/std::unordered_map implementation, so all virtual-time results
// are bit-for-bit unchanged.
#ifndef SRC_PMSIM_XPBUFFER_H_
#define SRC_PMSIM_XPBUFFER_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/common/lock.h"
#include "src/pmsim/config.h"
#include "src/trace/component.h"

namespace cclbt::pmsim {

// The per-DIMM buffer lock: a test-and-test-and-set spinlock (critical
// sections are a few dozen nanoseconds and per-DIMM sharding keeps real
// contention low, so the uncontended exchange beats a std::mutex). The
// annotated wrapper in src/common/lock.h carries the exact TTAS body this
// used to hand-roll, plus the capability annotations and lockcheck
// observer hook.
using XpBufferLock = sync::TtasSpinLock;

// Result of pushing one cacheline into the buffer.
struct XpBufferResult {
  bool evicted = false;        // an XPLine was written to media
  bool rmw = false;            // ... and required a read-modify-write
  // The trace::Component whose scope committed the evicted XPLine's first
  // line (stamped at insertion).
  trace::Component evicted_comp = trace::Component::kOther;
  uint64_t evicted_xpline = 0;  // media unit index of the eviction
};

class XpBuffer {
 public:
  // `lines_per_unit` = media unit bytes / 64 (4 for a 256 B XPLine, up to 64
  // for a 4 KB flash page on CXL-flash-like devices, paper §6).
  explicit XpBuffer(size_t entries, int lines_per_unit = static_cast<int>(kLinesPerXpline));

  XpBuffer(const XpBuffer&) = delete;
  XpBuffer& operator=(const XpBuffer&) = delete;

  // A cacheline flush for XPLine `xpline` arrived; `line_in_xpline` in [0,4).
  // `comp` names the flushing code, for attribution at eviction time.
  // Defined inline below: this is the single hottest function in the
  // simulator and the call sits on every committed line.
  XpBufferResult OnLineFlush(uint64_t xpline, int line_in_xpline,
                             trace::Component comp = trace::Component::kOther);

  // A PM read touching `xpline`. Returns true if served from the buffer.
  bool OnRead(uint64_t xpline);

  // The per-DIMM lock, exposed so the device can piggyback its DIMM
  // write-server clock update on the buffer's critical section (one lock
  // round-trip per committed line instead of lock + separate CAS).
  XpBufferLock& mutex() const RETURN_CAPABILITY(mu_) { return mu_; }
  // Variants for callers already holding mutex().
  XpBufferResult OnLineFlushLocked(uint64_t xpline, int line_in_xpline,
                                   trace::Component comp = trace::Component::kOther)
      REQUIRES(mu_);
  bool OnReadLocked(uint64_t xpline) REQUIRES(mu_);

  // Evict everything (e.g. end-of-run accounting). Calls
  // `sink(rmw, comp, xpline)` per evicted XPLine. Drained lines do not
  // count toward evictions().
  template <typename Sink>
  void Drain(Sink&& sink) {
    sync::LockGuard<XpBufferLock> guard(mu_);
    for (int32_t s = lru_head_; s != kNil; s = slots_[static_cast<size_t>(s)].next) {
      const Slot& slot = slots_[static_cast<size_t>(s)];
      sink(slot.dirty_mask != full_mask_, slot.comp, slot.xpline);
    }
    ResetLocked();
  }

  size_t resident() const {
    sync::LockGuard<XpBufferLock> guard(mu_);
    return size_;
  }

  // Lifetime conservation counters (for stress tests): every XPLine inserted
  // is eventually either evicted or still resident, so at any quiesced point
  // insertions() == evictions() + resident() (modulo Drain(), which resets
  // the buffer without counting evictions).
  uint64_t insertions() const {
    sync::LockGuard<XpBufferLock> guard(mu_);
    return insertions_;
  }
  uint64_t evictions() const {
    sync::LockGuard<XpBufferLock> guard(mu_);
    return evictions_;
  }

 private:
  static constexpr int32_t kNil = -1;

  struct Slot {
    uint64_t xpline = 0;
    uint64_t dirty_mask = 0;
    int32_t prev = kNil;       // intrusive LRU list; head == most recent
    int32_t next = kNil;       // doubles as the free-list link for unused slots
    int32_t table_pos = kNil;  // current position in table_, kept in sync by
                               // insertion and backward-shift deletion so
                               // eviction needs no second hash probe
    trace::Component comp = trace::Component::kOther;
  };

  // Table entries carry the key alongside the slot index: probe loops then
  // touch a single array (one dependent load per step) instead of chasing
  // table_ -> slots_ on every comparison, which matters because the hot path
  // runs up to three probe sequences per eviction (find, erase, reinsert).
  struct TableEntry {
    uint64_t xpline = 0;
    int32_t slot = kNil;  // kNil marks an empty table position
  };

  size_t Home(uint64_t xpline) const {
    // Fibonacci multiplicative hash; table size is a power of two.
    return static_cast<size_t>((xpline * 0x9E3779B97F4A7C15ULL) >> 32) & table_mask_;
  }

  // Returns the slot index holding `xpline`, or kNil on a miss.
  int32_t Find(uint64_t xpline) const REQUIRES(mu_) {
    size_t i = Home(xpline);
    while (table_[i].slot != kNil) {
      if (table_[i].xpline == xpline) {
        return table_[i].slot;
      }
      i = (i + 1) & table_mask_;
    }
    return kNil;
  }

  // Backward-shift deletion at table position `idx` (keeps probe chains
  // intact without tombstones). Knuth Algorithm R: shift later chain members
  // back into the hole so every key stays reachable from its home position.
  void TableEraseAt(size_t idx) REQUIRES(mu_) {
    size_t hole = idx;
    size_t j = idx;
    table_[hole].slot = kNil;
    while (true) {
      j = (j + 1) & table_mask_;
      if (table_[j].slot == kNil) {
        return;
      }
      size_t home = Home(table_[j].xpline);
      // Move table_[j] into the hole iff the hole lies cyclically between its
      // home position and j.
      if (((j - home) & table_mask_) >= ((j - hole) & table_mask_)) {
        table_[hole] = table_[j];
        slots_[static_cast<size_t>(table_[j].slot)].table_pos = static_cast<int32_t>(hole);
        table_[j].slot = kNil;
        hole = j;
      }
    }
  }

  void LruUnlink(int32_t s) REQUIRES(mu_) {
    Slot& slot = slots_[static_cast<size_t>(s)];
    if (slot.prev != kNil) {
      slots_[static_cast<size_t>(slot.prev)].next = slot.next;
    } else {
      lru_head_ = slot.next;
    }
    if (slot.next != kNil) {
      slots_[static_cast<size_t>(slot.next)].prev = slot.prev;
    } else {
      lru_tail_ = slot.prev;
    }
  }

  void LruPushFront(int32_t s) REQUIRES(mu_) {
    Slot& slot = slots_[static_cast<size_t>(s)];
    slot.prev = kNil;
    slot.next = lru_head_;
    if (lru_head_ != kNil) {
      slots_[static_cast<size_t>(lru_head_)].prev = s;
    }
    lru_head_ = s;
    if (lru_tail_ == kNil) {
      lru_tail_ = s;
    }
  }

  void LruMoveToFront(int32_t s) REQUIRES(mu_) {
    if (lru_head_ != s) {
      LruUnlink(s);
      LruPushFront(s);
    }
  }

  void ResetLocked() REQUIRES(mu_);

  const size_t capacity_;
  const uint64_t full_mask_;
  size_t table_mask_ = 0;  // table_.size() - 1

  mutable XpBufferLock mu_{"pm.xpbuffer"};
  size_t size_ GUARDED_BY(mu_) = 0;
  int32_t lru_head_ GUARDED_BY(mu_) = kNil;
  int32_t lru_tail_ GUARDED_BY(mu_) = kNil;
  int32_t free_head_ GUARDED_BY(mu_) = kNil;
  uint64_t insertions_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
  std::vector<Slot> slots_ GUARDED_BY(mu_);   // capacity_ entries, preallocated
  std::vector<TableEntry> table_ GUARDED_BY(mu_);  // open-addressing index into slots_
};

inline XpBufferResult XpBuffer::OnLineFlush(uint64_t xpline, int line_in_xpline,
                                            trace::Component comp) {
  sync::LockGuard<XpBufferLock> guard(mu_);
  return OnLineFlushLocked(xpline, line_in_xpline, comp);
}

inline XpBufferResult XpBuffer::OnLineFlushLocked(uint64_t xpline, int line_in_xpline,
                                                  trace::Component comp) {
  XpBufferResult result;
  int32_t s = Find(xpline);
  if (s != kNil) {
    // Write-combining hit: merge into the resident XPLine.
    slots_[static_cast<size_t>(s)].dirty_mask |= 1ULL << line_in_xpline;
    LruMoveToFront(s);
    return result;
  }
  if (size_ >= capacity_) {
    // Evict LRU: one media write; RMW read first if partially dirty.
    int32_t victim = lru_tail_;
    Slot& vslot = slots_[static_cast<size_t>(victim)];
    result.evicted = true;
    result.rmw = vslot.dirty_mask != full_mask_;
    result.evicted_comp = vslot.comp;
    result.evicted_xpline = vslot.xpline;
    evictions_++;
    LruUnlink(victim);
    assert(table_[static_cast<size_t>(vslot.table_pos)].slot == victim);
    TableEraseAt(static_cast<size_t>(vslot.table_pos));
    size_--;
    s = victim;
  } else {
    s = free_head_;
    free_head_ = slots_[static_cast<size_t>(s)].next;
  }
  Slot& slot = slots_[static_cast<size_t>(s)];
  slot.xpline = xpline;
  slot.dirty_mask = 1ULL << line_in_xpline;
  slot.comp = comp;
  LruPushFront(s);
  size_t i = Home(xpline);
  while (table_[i].slot != kNil) {
    i = (i + 1) & table_mask_;
  }
  table_[i].xpline = xpline;
  table_[i].slot = s;
  slot.table_pos = static_cast<int32_t>(i);
  size_++;
  insertions_++;
  return result;
}

inline bool XpBuffer::OnRead(uint64_t xpline) {
  sync::LockGuard<XpBufferLock> guard(mu_);
  return OnReadLocked(xpline);
}

inline bool XpBuffer::OnReadLocked(uint64_t xpline) {
  int32_t s = Find(xpline);
  if (s == kNil) {
    return false;
  }
  LruMoveToFront(s);
  return true;
}

}  // namespace cclbt::pmsim

#endif  // SRC_PMSIM_XPBUFFER_H_
