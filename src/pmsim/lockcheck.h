// lockcheck: a deterministic lockset / lock-order sanitizer for the
// simulator's virtual-time workloads (DESIGN.md §16). The concurrency-
// discipline sibling of pmcheck (§11): pmcheck verifies the store→flush→
// fence protocol, lockcheck verifies the locking protocol those persists run
// under — the seam where NV-Traverse/FliT-class bugs live.
//
// Input streams:
//  * Lock events — every sync::Mutex/SharedMutex/TtasSpinLock/SeqLock in the
//    tree (src/common/lock.h) reports acquire/release/seq-read events through
//    the sync::LockObserver hook; LockCheck installs itself as the observer
//    while enabled.
//  * Memory events — PM cacheline writes arrive from PmDevice::FlushLine
//    (a flush is the commitment that the line was stored), reads from
//    PmDevice::ReadPm, publish points from Fence.
//
// Checks, one diagnostic class each:
//  1. unlocked_write     Eraser-style: a PM line that more than one worker
//                        has written is written while the writer holds no
//                        exclusive lock at all.
//  2. lockset_empty      The line's candidate lockset — the intersection of
//                        exclusive locks held across all its multi-worker
//                        writes — just became empty: no single lock protects
//                        it consistently.
//  3. seq_write_no_bump  The candidate lockset said a seqlock guards the
//                        line, but this write happened without write-holding
//                        it (no version bump ⇒ concurrent optimistic readers
//                        cannot detect the mutation).
//  4. lock_cycle         The class-level lock-order graph (edges added on
//                        every *blocking* acquire, keyed by lock name) just
//                        gained a cycle: deadlock potential. Try-acquires
//                        cannot block and add no edges; same-name edges
//                        (key-ordered sibling latches) are skipped.
//  5. fence_publish_gap  A fence commits a line whose candidate lockset is
//                        non-empty but entirely unheld by the fencing worker:
//                        the protecting lock was released between flush and
//                        fence, so another thread may redirty the line
//                        mid-publish. Informational by default; escalated to
//                        a violation when pmcheck's shadow state confirms the
//                        line content actually changed since its flush
//                        (the cross-check against §11's checker).
//
// False-positive machinery, tuned so a clean CCL-BTree or service run is
// zero-diagnostic (asserted in tests/lockcheck_test.cc):
//  * Per-line state machine Virgin → Exclusive(worker) → Shared →
//    SharedModified: single-writer data (per-worker WALs) never leaves
//    Exclusive and is exempt.
//  * Reads never refine the candidate lockset — lockless optimistic readers
//    are this codebase's *design* (seqlock validation), not a bug. Seqlock
//    read sections are tracked for statistics instead.
//  * Single-threaded phases (pool format, recovery boot: one live context)
//    re-own written lines.
//  * LockCheckResetRange: allocators call it on ownership transfer (slab
//    slot reuse, WAL chunk recycling) so a line's history does not leak
//    across logical owners.
//  * LockCheckExpect (the checker core's scoped suppression,
//    src/pmsim/checker.h) annotates intentional protocol exceptions in
//    place. PM reads under an active kLocksetEmpty scope additionally skip
//    the state machine: they are synchronized by a protocol the checker
//    cannot see (recovery's timestamp-ordered WAL scan).
//
// Enablement and cost: CCL_LOCKCHECK=1 (or DeviceConfig::lockcheck /
// RunConfig::lockcheck). Disabled, the wrappers pay one atomic load + branch
// per lock operation and the device one pointer test per flush/fence/read —
// no pmsim calls, no virtual-time writes, so virtual metrics are bit-
// identical with the checker on, off, or absent (DESIGN.md §10).
#ifndef SRC_PMSIM_LOCKCHECK_H_
#define SRC_PMSIM_LOCKCHECK_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/lock.h"
#include "src/pmsim/checker.h"
#include "src/trace/component.h"

namespace cclbt::pmsim {

class PmDevice;
class PmCheck;
class ThreadContext;

enum class LockCheckClass : uint8_t {
  kUnlockedWrite = 0,
  kLocksetEmpty = 1,
  kSeqWriteNoBump = 2,
  kLockCycle = 3,
  kFencePublishGap = 4,
  kCount = 5,
};

// Recent-event kinds. Hot spin locks (per-DIMM XPBuffer, trace rings) are
// checked but not recorded — they would flood the ring with one pair per
// flush and drown the context that actually explains a violation.
enum class LockCheckEventKind : uint8_t {
  kAcquire = 0,    // detail = 1 exclusive / 0 shared
  kRelease = 1,
  kSeqBegin = 2,   // optimistic read section opened
  kSeqRetire = 3,  // detail = 1 validated / 0 failed
  kWrite = 4,      // detail = line offset
  kRead = 5,       // detail = first line offset of the range
  kFence = 6,      // detail = pending line count
  kReset = 7,      // detail = first line offset (ownership transfer)
  kCrash = 8,
};

struct LockCheckEvent : CheckerEvent<LockCheckEventKind> {
  const char* lock = "";  // static lock name, "" when not lock-related

  template <typename F>
  void ForEachField(F&& f) const {
    f("lock", lock[0] == '\0' ? "-" : lock);
  }
};

struct LockCheckDiagnostic : CheckerDiagnostic<LockCheckClass, LockCheckEvent> {
  // Primary lock name: the guarding seqlock (class 3), the held-from node of
  // the cycle edge (class 4), or the lockset remnant (classes 1-2, 5);
  // "none" when no lock is involved.
  const char* lock = "none";
  // Second lock name: the acquired-to node of the cycle edge (class 4).
  const char* lock2 = "none";

  template <typename F>
  void ForEachField(F&& f) const {
    f("lock", lock);
    f("lock2", lock2);
  }
};

using LockCheckReport = CheckerReport<LockCheckDiagnostic>;
using LockCheckExpect = CheckerExpect<LockCheckClass>;

// Stable slugs used in .pmmetrics checker records and `pmctl check` output.
const char* CheckClassName(LockCheckClass cls);
const char* CheckEventName(LockCheckEventKind kind);

// Ownership-transfer reset: allocators call this when a PM range changes
// logical owner (slab slot handed out, WAL chunk recycled) so stale lockset
// history cannot produce false sharing reports. Resolves the calling
// thread's context; a no-op when no context is bound or lockcheck is off.
void LockCheckResetRange(const void* addr, size_t len);

// The checker proper; owned by PmDevice when enabled, absent otherwise
// (the pointer doubles as the runtime gate, like pmcheck). Installs itself
// as the process-wide sync::LockObserver for its lifetime.
//
// Locking: shared state serializes on one CheckerMutex — deliberately NOT a
// sync::Mutex, whose acquires would recurse into the observer hooks.
// Per-thread state (held-lock stack, Expect depths) is thread-local and
// lock-free. Hooks never advance virtual clocks and never touch Stats.
class LockCheck final : public sync::LockObserver {
 public:
  explicit LockCheck(PmDevice& device);
  ~LockCheck();

  LockCheck(const LockCheck&) = delete;
  LockCheck& operator=(const LockCheck&) = delete;

  // --- sync::LockObserver ----------------------------------------------------
  void OnLockAcquire(const void* lock, const char* name, sync::LockKind kind,
                     bool exclusive, bool trylock) override;
  void OnLockRelease(const void* lock, const char* name, sync::LockKind kind,
                     bool exclusive) override;
  void OnSeqReadBegin(const void* lock, const char* name) override;
  void OnSeqReadRetire(const void* lock, const char* name, bool validated) override;

  // --- hooks called by PmDevice ---------------------------------------------
  // FlushLine: the commitment that `line` was stored by ctx's worker.
  void OnPmWrite(const ThreadContext& ctx, uintptr_t line);
  // ReadPm over [offset, offset+len).
  void OnPmRead(const ThreadContext& ctx, uintptr_t offset, size_t len);
  // Fence about to commit `pending`. `pmcheck` (may be null) supplies the
  // redirtied-since-flush cross-check for class 5 escalation.
  void OnFencePending(const ThreadContext& ctx, const std::vector<uintptr_t>& pending,
                      trace::Component comp, const PmCheck* pmcheck);
  // Crash()/CrashTorn(): line history dies with the working image.
  void OnCrash();
  // Live registered context count (single-threaded-phase rule).
  void OnContextCount(size_t live);
  // LockCheckResetRange lands here.
  void ResetRange(uintptr_t offset, size_t len);

  LockCheckReport Snapshot() const;

 private:
  struct LockInfo {
    const char* name = "";
    sync::LockKind kind = sync::LockKind::kMutex;
  };

  // Candidate locksets hold at most this many distinct lock instances; the
  // repo's deepest real nesting is 3 (bn latch + inner mutex + inner seq).
  static constexpr size_t kMaxLockset = 4;

  enum class LineState : uint8_t { kExclusive = 0, kShared = 1, kSharedModified = 2 };

  struct LineRec {
    LineState state = LineState::kExclusive;
    bool reported = false;        // classes 1-3: one diagnostic per line
    bool fence_reported = false;  // class 5: one diagnostic per line
    uint16_t owner = 0;           // worker id (stable across context rebinds)
    uint8_t nlocks = kLocksetUninit;
    std::array<uint32_t, kMaxLockset> lockset{};  // interned lock ids
  };
  static constexpr uint8_t kLocksetUninit = 0xFF;

  uint32_t InternLocked(const void* lock, const char* name, sync::LockKind kind);
  void AppendEventLocked(LockCheckEventKind kind, trace::Component comp,
                         uint16_t worker, const char* lock, uint64_t detail);
  void DiagLocked(LockCheckClass cls, uint64_t line, trace::Component comp,
                  uint16_t worker, const char* lock, const char* lock2,
                  const char* detail, bool info);
  // Adds name-level edge from→to; returns true (and materializes a class-4
  // diagnostic) when the edge closes a cycle.
  void AddOrderEdgeLocked(uint32_t from_name, uint32_t to_name, trace::Component comp,
                          uint16_t worker);
  bool ReachableLocked(uint32_t from_name, uint32_t to_name) const;
  uint32_t InternNameLocked(const char* name);

  PmDevice& device_;
  std::atomic<size_t> live_contexts_{0};

  mutable CheckerMutex mu_;
  bool observer_installed_ = false;

  // Lock instance registry: address → interned id; id → {name, kind}.
  std::unordered_map<const void*, uint32_t> lock_ids_;
  std::vector<LockInfo> locks_;

  // Per-cacheline shadow state, keyed by line-aligned pool offset.
  std::unordered_map<uint64_t, LineRec> lines_;

  // Name-level lock-order graph.
  std::unordered_map<std::string, uint32_t> name_ids_;
  std::vector<const char*> names_;
  std::vector<std::vector<uint32_t>> order_adj_;  // name id → successor name ids
  uint64_t order_edges_ = 0;

  uint64_t seq_read_sections_ = 0;
  uint64_t seq_validate_failures_ = 0;

  CheckerCore<LockCheckDiagnostic> core_{"lockcheck"};
};

}  // namespace cclbt::pmsim

#endif  // SRC_PMSIM_LOCKCHECK_H_
