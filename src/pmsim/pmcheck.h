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
// Diagnostics carry, besides the checker core's common fields
// (src/pmsim/checker.h), the fence epoch and DIMM/XPLine address;
// `pmctl check` prints attributed reports from the run's .pmmetrics dump and
// exits nonzero on violations.
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
// CheckAction rule table (DESIGN.md §14). On eADR, redundant_flush and
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
#include <unordered_map>
#include <vector>

#include "src/pmsim/checker.h"
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

// What the device was doing just before a finding, for attribution.
enum class PmCheckEventKind : uint8_t {
  kFlush = 0,  // detail = line offset
  kFence = 1,  // detail = committed line count (0 for a useless fence)
  kRead = 2,   // detail = first line offset of the ReadPm range
  kCrash = 3,
  kClose = 4,
};

struct PmCheckEvent : CheckerEvent<PmCheckEventKind> {
  uint64_t fence_epoch = 0;

  template <typename F>
  void ForEachField(F&& f) const {
    f("epoch", fence_epoch);
  }
};

struct PmCheckDiagnostic : CheckerDiagnostic<PmCheckClass, PmCheckEvent> {
  uint64_t xpline = 0;  // media unit index of `line`
  int dimm = 0;
  uint64_t fence_epoch = 0;

  template <typename F>
  void ForEachField(F&& f) const {
    f("xpline", xpline);
    f("dimm", dimm);
    f("epoch", fence_epoch);
  }
};

using PmCheckReport = CheckerReport<PmCheckDiagnostic>;
using PmCheckExpect = CheckerExpect<PmCheckClass>;

// Stable slugs used in .pmmetrics checker records and `pmctl check` output.
const char* CheckClassName(PmCheckClass cls);
const char* CheckEventName(PmCheckEventKind kind);

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

  static uint64_t HashLine(const std::byte* line);

  void AppendEventLocked(PmCheckEventKind kind, trace::Component comp, uint16_t worker,
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
  std::array<CheckAction, static_cast<size_t>(PmCheckClass::kCount)> actions_{};

  mutable CheckerMutex mu_;
  std::unordered_map<uint64_t, LineRecord> lines_;
  uint64_t fence_epochs_ = 0;
  CheckerCore<PmCheckDiagnostic> core_{"pmcheck"};
};

}  // namespace cclbt::pmsim

#endif  // SRC_PMSIM_PMCHECK_H_
