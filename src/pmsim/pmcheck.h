// pmcheck: a shadow-state persistency-ordering checker for pmsim
// (DESIGN.md §11). The correctness-tooling analogue of ASan/TSan for the
// store→flush→fence discipline every PM index in this repo must obey.
//
// The simulator does not intercept stores — PM writes are plain stores into
// the mmap'd working image — so dirtiness is detected by *content*: a line
// whose working-image bytes differ from the shadow (last-durable) image is
// DirtyUnflushed. On top of that, each cacheline moves through
//
//   Clean → DirtyUnflushed → FlushPending → Durable
//                 ^   (store; detected lazily by content comparison)
//                        ^   (FlushLine: clwb issued, awaiting fence)
//                                ^   (Fence commits the pending set)
//
// with a global fence-epoch counter stamping every transition. Five bug
// classes are diagnosed:
//
//   1. redundant_flush     FlushLine on a clean line (content equals the
//                          durable image) or a re-flush of an
//                          already-pending line with unchanged content.
//                          Costs CPU + media traffic, persists nothing new.
//   2. useless_fence       Fence with zero pending lines for the thread.
//   3. dirty_at_fence      A line re-dirtied between its flush and the
//                          fence: on real hardware the clwb captured the
//                          *old* content, so the fence does not make the
//                          new content durable (torn-write risk). pmsim
//                          detects it as flush-time hash != fence-time hash.
//   4. unflushed_at_close  Lines still dirty (stored-never-flushed, or
//                          flushed-never-fenced) when DrainBuffers() or a
//                          non-injected Crash() fires.
//   5. read_before_durable ReadPm of a line another context has flushed but
//                          not yet fenced durable: the reader may act on
//                          state that a crash would revert.
//
// Diagnostics carry the active trace::Component, fence epoch, DIMM/XPLine
// address, and a short ring of recent events; `pmctl check` prints attributed
// reports from a .pmtrace dump and exits nonzero on violations.
//
// Enablement and cost: CCL_PMCHECK=1 (or DeviceConfig::pmcheck /
// RunConfig::pmcheck). Disabled cost follows the PR 2 playbook — one gate
// read per fence picking a template-specialized commit path
// (CommitPending<kTraced, kChecked>) plus one pointer test per
// FlushLine/ReadPm, the same pattern as the crash injector. The checker never
// touches virtual time or the stats counters, so enabling it leaves every
// virtual-time metric bit-identical (the determinism contract, DESIGN.md §10).
//
// Severity is backend-dependent: the device's MediaModel supplies a per-class
// PmCheckAction rule table (DESIGN.md §14). On eADR, redundant_flush and
// useless_fence downgrade to informational (flushes/fences cost nothing for
// persistence there, but the counts tell you what an ADR-tuned workload could
// shed), and the pending-window classes (dirty_at_fence, read_before_durable)
// are off — there is no flush→fence window for them to fire in.
//
// Intentional violations (e.g. a deliberately redundant defensive flush) are
// whitelisted in-place with a scoped PmCheckExpect annotation, never by
// global suppression.
#ifndef SRC_PMSIM_PMCHECK_H_
#define SRC_PMSIM_PMCHECK_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/trace/component.h"

namespace cclbt::pmsim {

class PmDevice;
class ThreadContext;

enum class PmCheckClass : uint8_t {
  kRedundantFlush = 0,
  kUselessFence = 1,
  kDirtyAtFence = 2,
  kUnflushedAtClose = 3,
  kReadBeforeDurable = 4,
  kCount = 5,
};

inline constexpr int kNumPmCheckClasses = static_cast<int>(PmCheckClass::kCount);

// Stable slug used in .pmtrace dumps and pmctl check output.
const char* PmCheckClassName(PmCheckClass cls);

// Severity of one diagnostic class on one persistence backend. The table is
// supplied by the device's MediaModel (DESIGN.md §14): the same code pattern
// can be a bug on one backend and merely wasteful (or meaningless) on
// another — e.g. a redundant flush costs CPU + media traffic on ADR but
// nothing on eADR, and a pending-line race cannot exist where there is no
// pending window.
//   kReport  counted + materialized as a violation; gates `pmctl check`
//   kInfo    counted separately as informational; never gates an exit status
//   kOff     the class cannot occur / carries no signal on this backend
enum class PmCheckAction : uint8_t { kReport = 0, kInfo = 1, kOff = 2 };

// One entry of the recent-event ring attached to every diagnostic: what the
// device was doing just before the violation, for attribution.
struct PmCheckEvent {
  enum class Kind : uint8_t {
    kFlush = 0,   // detail = line offset
    kFence = 1,   // detail = committed line count (0 for a useless fence)
    kRead = 2,    // detail = first line offset of the ReadPm range
    kCrash = 3,
    kClose = 4,
  };
  Kind kind = Kind::kFlush;
  trace::Component comp = trace::Component::kOther;
  uint16_t worker = 0;
  uint64_t detail = 0;
  uint64_t fence_epoch = 0;
};

const char* PmCheckEventKindName(PmCheckEvent::Kind kind);

struct PmCheckDiagnostic {
  PmCheckClass cls = PmCheckClass::kRedundantFlush;
  uint64_t line = 0;    // line-aligned pool offset (0 for useless_fence)
  uint64_t xpline = 0;  // media unit index of `line`
  int dimm = 0;
  trace::Component comp = trace::Component::kOther;
  uint16_t worker = 0;
  uint64_t fence_epoch = 0;
  // Static single-token cause string (no spaces; dump-format safe).
  const char* detail = "";
  // True when the backend's rule table downgraded this class to kInfo.
  bool info = false;
  // Up to kRecentEventsPerDiagnostic events preceding the violation,
  // oldest first.
  std::vector<PmCheckEvent> recent;
};

struct PmCheckReport {
  bool enabled = false;
  std::array<uint64_t, kNumPmCheckClasses> counts{};
  std::array<uint64_t, kNumPmCheckClasses> suppressed{};
  // Informational occurrences (classes the backend downgrades to kInfo).
  // Never part of total(), never gate an exit status.
  std::array<uint64_t, kNumPmCheckClasses> info{};
  uint64_t fence_epochs = 0;
  uint64_t lines_tracked = 0;
  // Diagnostics beyond either retention cap (violations or informational)
  // are counted but not materialized; a nonzero value means the list below
  // is incomplete (never read a capped run as clean — the counts above stay
  // exact).
  uint64_t diagnostics_truncated = 0;
  std::vector<PmCheckDiagnostic> diagnostics;

  // Unsuppressed violations (what `pmctl check` gates its exit status on).
  uint64_t total() const {
    uint64_t sum = 0;
    for (uint64_t c : counts) {
      sum += c;
    }
    return sum;
  }
  uint64_t total_suppressed() const {
    uint64_t sum = 0;
    for (uint64_t c : suppressed) {
      sum += c;
    }
    return sum;
  }
  uint64_t total_info() const {
    uint64_t sum = 0;
    for (uint64_t c : info) {
      sum += c;
    }
    return sum;
  }
};

// Scoped whitelist for an *intentional* violation: while alive on the calling
// thread, diagnostics of `cls` raised by this thread's device calls are
// counted as suppressed instead of reported. RAII + thread-local depth, so
// scopes nest and never leak suppression across threads. Zero device
// dependency: annotating code builds and runs unchanged when pmcheck is off.
class PmCheckExpect {
 public:
  explicit PmCheckExpect(PmCheckClass cls);
  ~PmCheckExpect();

  PmCheckExpect(const PmCheckExpect&) = delete;
  PmCheckExpect& operator=(const PmCheckExpect&) = delete;

  // True if the calling thread is inside a PmCheckExpect scope for `cls`.
  static bool ActiveFor(PmCheckClass cls);

 private:
  PmCheckClass cls_;
};

// The checker proper; owned by PmDevice when enabled, absent otherwise.
// All hooks serialize on one mutex — pmcheck is a checker mode, not a
// production mode, and under the sequential virtual-time scheduler the lock
// is uncontended anyway. Hooks never advance virtual clocks and never touch
// Stats, so enabling the checker cannot perturb any virtual-time metric.
class PmCheck {
 public:
  explicit PmCheck(PmDevice& device);

  PmCheck(const PmCheck&) = delete;
  PmCheck& operator=(const PmCheck&) = delete;

  // --- hooks called by PmDevice (explicit-persist backends) ----------------
  // FlushLine: `newly_pending` is AddPendingLine's return (false == the line
  // was already in this context's pending set).
  void OnFlush(const ThreadContext& ctx, uintptr_t line, bool newly_pending);
  // Fence with an empty pending set (class 2). Bumps the fence epoch.
  void OnUselessFence(const ThreadContext& ctx);
  // --- hooks for flush-free backends (eADR) --------------------------------
  // FlushLine in a flush-free domain, called *before* the device syncs the
  // shadow copy: a flush of a line whose content already equals the durable
  // image would have been redundant even on ADR (class 1, typically kInfo).
  void OnFlushFree(const ThreadContext& ctx, uintptr_t line);
  // Fence in a flush-free domain: every fence is ordering-only there
  // (class 2, typically kInfo — the count is how many fences the workload
  // could shed on this backend).
  void OnFenceFree(const ThreadContext& ctx);
  // Fence about to commit `pending` (class 3 per line); bumps the fence epoch
  // and marks every line Durable.
  void OnFenceCommit(const ThreadContext& ctx, const std::vector<uintptr_t>& pending,
                     trace::Component comp);
  // ReadPm over [offset, offset+len) (class 5 per line).
  void OnReadRange(const ThreadContext& ctx, uintptr_t offset, size_t len);
  // Crash()/CrashTorn(): scans for still-dirty lines (class 4) unless the
  // crash was injected on purpose (armed CrashInjector fired), then resets
  // all line state — after the crash the working image equals the shadow.
  void OnCrash(bool injected);
  // DrainBuffers() (pool close / end-of-run): class-4 scan. Repeated calls
  // report each dirty line once.
  void OnClose();

  // True iff `line` (line-aligned pool offset) is flush-pending and its
  // working-image content no longer matches what the flush captured — i.e. a
  // fence right now would be class 3. Lockcheck's fence-publish cross-check
  // (DESIGN.md §16) queries this to decide whether an unprotected publish
  // window was actually written into. Takes mu_; callers must not hold it.
  bool LineRedirtiedSinceFlush(uintptr_t line) const;

  PmCheckReport Snapshot() const;

 private:
  struct LineRecord {
    uint64_t flush_hash = 0;  // working-image content hash at last flush
    uint64_t epoch = 0;       // fence epoch of the last transition
    trace::Component comp = trace::Component::kOther;  // last flusher's scope
    uint16_t worker = 0;
    bool pending = false;          // FlushPending (flushed, not yet fenced)
    bool close_reported = false;   // class-4 already reported for this line
    const ThreadContext* owner = nullptr;  // context owning the pending flush
  };

  static constexpr size_t kEventRing = 64;
  static constexpr size_t kRecentEventsPerDiagnostic = 8;
  static constexpr size_t kMaxDiagnostics = 256;
  // Informational diagnostics materialize into their own (small) budget so a
  // flood of downgraded findings cannot crowd out real violations.
  static constexpr size_t kMaxInfoDiagnostics = 16;

  static uint64_t HashLine(const std::byte* line);

  void AppendEventLocked(PmCheckEvent::Kind kind, trace::Component comp, uint16_t worker,
                         uint64_t detail);
  void DiagLocked(PmCheckClass cls, uint64_t line, trace::Component comp, uint16_t worker,
                  const char* detail);
  // Content scan of the whole pool against the shadow image; reports every
  // not-yet-reported dirty line as class 4. `detail_pending` /
  // `detail_unflushed` distinguish flushed-never-fenced from
  // stored-never-flushed.
  void ScanUnflushedLocked(const char* detail_unflushed, const char* detail_pending);

  PmDevice& device_;
  const std::byte* pool_;
  const std::byte* shadow_;
  size_t pool_bytes_;
  size_t xpline_bytes_;

  // Per-class severity, copied from the device's MediaModel rule table at
  // construction (the model outlives the checker; a copy keeps DiagLocked a
  // plain array load).
  std::array<PmCheckAction, kNumPmCheckClasses> actions_{};

  // Checker-internal serialization stays a raw std::mutex: a sync::Mutex
  // would report its own acquires to the lockcheck observer, making checker
  // bookkeeping visible to the checkers themselves.
  using CheckerMutex = std::mutex;  // lint_pm_api: allow
  mutable CheckerMutex mu_;
  std::unordered_map<uint64_t, LineRecord> lines_;
  uint64_t fence_epochs_ = 0;
  std::array<uint64_t, kNumPmCheckClasses> counts_{};
  std::array<uint64_t, kNumPmCheckClasses> suppressed_{};
  std::array<uint64_t, kNumPmCheckClasses> info_counts_{};
  uint64_t diagnostics_truncated_ = 0;
  size_t info_materialized_ = 0;
  std::vector<PmCheckDiagnostic> diagnostics_;
  std::array<PmCheckEvent, kEventRing> events_{};
  uint64_t events_seen_ = 0;
};

}  // namespace cclbt::pmsim

#endif  // SRC_PMSIM_PMCHECK_H_
