// The core both shadow checkers share: pmcheck (store→flush→fence ordering,
// DESIGN.md §11) and lockcheck (the locks those persists run under, §16).
// Both file findings in one shape — a class, a code site (cacheline,
// trace::Component, worker, single-token cause) and a count — so the core
// owns everything that shape implies:
//   * the per-class counts of violations, suppressed and informational
//     findings, and their totals;
//   * the severity of each finding (report / info / off) and the retention
//     caps on materialized diagnostics, with `diagnostics_truncated`;
//   * the ring of recent events copied into every diagnostic;
//   * the scoped, thread-local suppression (CheckerExpect);
//   * the report snapshot.
// A checker keeps only its state machine, its class and event-kind names,
// and the extra fields of its diagnostics and events. It lists those fields
// in a `ForEachField(f)` member, which the dump writer turns into the
// `fields` object of the run's checker record (src/bench/measured_phase.cc)
// for `pmctl check`.
#ifndef SRC_PMSIM_CHECKER_H_
#define SRC_PMSIM_CHECKER_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <mutex>
#include <utility>
#include <vector>

#include "src/trace/component.h"

namespace cclbt::pmsim {

// Severity of one finding:
//   kReport  counted + materialized as a violation; gates `pmctl check`
//   kInfo    counted separately as informational; never gates an exit status
//   kOff     the class cannot occur / carries no signal here; dropped
enum class CheckAction : uint8_t { kReport = 0, kInfo = 1, kOff = 2 };

// Checker-internal serialization stays a raw std::mutex: a sync::Mutex would
// report its own acquires to the lockcheck observer, making checker
// bookkeeping visible to the checkers themselves.
using CheckerMutex = std::mutex;  // lint_pm_api: allow

// The fields every recent-event record carries; a checker's event type
// derives from it and adds its own.
template <typename KindT>
struct CheckerEvent {
  using Kind = KindT;
  Kind kind{};
  trace::Component comp = trace::Component::kOther;
  uint16_t worker = 0;
  uint64_t detail = 0;
};

// The fields every diagnostic carries; a checker's diagnostic type derives
// from it and adds its own.
template <typename ClassT, typename EventT>
struct CheckerDiagnostic {
  using Class = ClassT;
  using Event = EventT;
  Class cls{};
  uint64_t line = 0;  // line-aligned pool offset (0 when no line is involved)
  trace::Component comp = trace::Component::kOther;
  uint16_t worker = 0;
  // Static single-token cause string (no spaces; dump-format safe).
  const char* detail = "";
  // Informational finding (CheckAction::kInfo), not a violation.
  bool info = false;
  // The events preceding the finding, oldest first.
  std::vector<Event> recent;
};

template <typename Diagnostic>
struct CheckerReport {
  using Class = typename Diagnostic::Class;
  static constexpr size_t kNumClasses = static_cast<size_t>(Class::kCount);
  using Counts = std::array<uint64_t, kNumClasses>;

  const char* checker = "";  // the checker's name in dumps and summaries
  bool enabled = false;
  Counts counts{};      // violations
  Counts suppressed{};  // findings inside a CheckerExpect scope
  Counts info{};        // informational findings; never part of total()
  // The checker's own counters, in dump order.
  std::vector<std::pair<const char*, uint64_t>> stats;
  // Findings beyond either retention cap are counted above but not
  // materialized below: nonzero means the list is incomplete (never read a
  // capped run as clean — the counts stay exact).
  uint64_t diagnostics_truncated = 0;
  std::vector<Diagnostic> diagnostics;

  // Unsuppressed violations (what `pmctl check` gates its exit status on).
  uint64_t total() const { return Sum(counts); }
  uint64_t total_suppressed() const { return Sum(suppressed); }
  uint64_t total_info() const { return Sum(info); }

  // The checker's counter `name` (which must be one of its stats).
  uint64_t stat(const char* name) const {
    for (const auto& [key, value] : stats) {
      if (std::strcmp(key, name) == 0) {
        return value;
      }
    }
    assert(false && "no such checker stat");
    return 0;
  }

 private:
  static uint64_t Sum(const Counts& per_class) {
    uint64_t sum = 0;
    for (uint64_t c : per_class) {
      sum += c;
    }
    return sum;
  }
};

// Scoped whitelist for an *intentional* finding: while alive on the calling
// thread, findings of `cls` raised by this thread count as suppressed instead
// of reported. RAII + a thread-local depth per class, so scopes nest and never
// leak suppression across threads. No device dependency: annotated code
// builds and runs unchanged when the checker is off.
template <typename Class>
class CheckerExpect {
 public:
  explicit CheckerExpect(Class cls) : cls_(cls) { depth_[Index(cls_)]++; }
  ~CheckerExpect() { depth_[Index(cls_)]--; }

  CheckerExpect(const CheckerExpect&) = delete;
  CheckerExpect& operator=(const CheckerExpect&) = delete;

  // True if the calling thread is inside a scope for `cls`.
  static bool ActiveFor(Class cls) { return depth_[Index(cls)] > 0; }

 private:
  static size_t Index(Class cls) { return static_cast<size_t>(cls); }

  // constinit: no TLS init guard on the ActiveFor fast path.
  constinit static inline thread_local int depth_[static_cast<size_t>(Class::kCount)] = {};
  Class cls_;
};

// One checker's findings and recent events. Unsynchronized: the owning
// checker calls it under its CheckerMutex.
template <typename Diagnostic>
class CheckerCore {
 public:
  using Class = typename Diagnostic::Class;
  using Event = typename Diagnostic::Event;
  using Report = CheckerReport<Diagnostic>;

  explicit CheckerCore(const char* name) {
    report_.checker = name;
    report_.enabled = true;
    report_.diagnostics.reserve(64);
  }

  void Record(const Event& event) { events_[events_seen_++ % kEventRing] = event; }

  // Files one finding of `cls` at `action`. Returns the materialized
  // diagnostic — common fields and recent events filled in — for the caller
  // to add its own fields to; nullptr when the finding is off, suppressed by
  // an in-scope CheckerExpect, or beyond its retention cap (counted in the
  // last two cases).
  Diagnostic* File(Class cls, CheckAction action, uint64_t line, trace::Component comp,
                   uint16_t worker, const char* detail) {
    const auto idx = static_cast<size_t>(cls);
    if (action == CheckAction::kOff) {
      return nullptr;
    }
    if (CheckerExpect<Class>::ActiveFor(cls)) {
      report_.suppressed[idx]++;
      return nullptr;
    }
    const bool info = action == CheckAction::kInfo;
    (info ? report_.info : report_.counts)[idx]++;
    // Informational findings have their own small budget so a flood of them
    // cannot crowd out real violations.
    size_t& kept = info ? info_kept_ : violations_kept_;
    if (kept >= (info ? kMaxInfoDiagnostics : kMaxDiagnostics)) {
      report_.diagnostics_truncated++;
      return nullptr;
    }
    kept++;
    Diagnostic& d = report_.diagnostics.emplace_back();
    d.cls = cls;
    d.line = line;
    d.comp = comp;
    d.worker = worker;
    d.detail = detail;
    d.info = info;
    const uint64_t n = std::min<uint64_t>(events_seen_, kRecentEventsPerDiagnostic);
    d.recent.reserve(n);
    for (uint64_t i = events_seen_ - n; i < events_seen_; i++) {
      d.recent.push_back(events_[i % kEventRing]);
    }
    return &d;
  }

  // The report, with the checker's own counters as its `stats`.
  Report Snapshot(std::initializer_list<std::pair<const char*, uint64_t>> stats) const {
    Report report = report_;
    report.stats = stats;
    return report;
  }

 private:
  static constexpr size_t kEventRing = 64;
  static constexpr size_t kRecentEventsPerDiagnostic = 8;
  static constexpr size_t kMaxDiagnostics = 256;
  static constexpr size_t kMaxInfoDiagnostics = 16;

  Report report_;
  size_t violations_kept_ = 0;
  size_t info_kept_ = 0;
  std::array<Event, kEventRing> events_{};
  uint64_t events_seen_ = 0;
};

}  // namespace cclbt::pmsim

#endif  // SRC_PMSIM_CHECKER_H_
