// pmtrace: always-compiled, runtime-gated observability for the PM stack.
//
// Three independent facilities, all off by default:
//
//  * Event tracing (SetEnabled). Each pmsim::ThreadContext owns a TraceRing
//    — a fixed-capacity single-writer ring buffer that keeps the newest
//    events (oldest are overwritten on wrap). The disabled path is one
//    relaxed load of a global flag per emit site; no ring is even allocated
//    until the first enabled emit on a thread.
//
//  * Attribution scopes (TraceScope). Index code pushes the component it is
//    about to do PM work for; the simulator reads CurrentComponent() to
//    charge flushes and media writes per component. Scopes are plain
//    thread-local byte swaps and are always active (they feed the
//    per-component counters in pmsim::StatsSnapshot, which are ordinary
//    stats, not tracing).
//
//  * Scope timing (SetScopeTiming). When on, TraceScope additionally
//    accumulates exclusive virtual-time per component into a thread-local
//    table, which the bench driver turns into per-component latency
//    histograms (Figure 12 breakdown).
//
// Layering: this library depends on nothing in the repo. pmsim binds each
// ThreadContext's virtual clock and ring into thread-local slots here
// (BindThread), so scopes can timestamp events without trace-> pmsim
// dependency cycles.
#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/trace/component.h"
#include "src/common/lock.h"
#include "src/trace/event.h"

namespace cclbt::trace {

// ---------------------------------------------------------------------------
// Ring buffer. Single writer (the owning logical worker); concurrent readers
// (dump while a background thread is live) are serialized by a tiny
// spinlock that is only ever touched when tracing is enabled.
// ---------------------------------------------------------------------------

// The annotated TTAS wrapper from src/common/lock.h; reports into lockcheck
// like every other lock in the tree.
using RingLock = sync::TtasSpinLock;

class TraceRing {
 public:
  // Power-of-two capacity in events (24 B each).
  explicit TraceRing(size_t capacity);

  void Emit(const TraceEvent& ev) {
    lock_.lock();
    buf_[static_cast<size_t>(seq_) & mask_] = ev;
    seq_++;
    lock_.unlock();
  }

  // Copies the retained events, oldest first. Caller need not quiesce the
  // writer; the spinlock makes the copy torn-free (it may miss in-flight
  // events).
  std::vector<TraceEvent> Snapshot() const;

  // Forgets all retained events (the ring stays usable).
  void Clear() {
    lock_.lock();
    seq_ = 0;
    lock_.unlock();
  }

  uint64_t emitted() const {
    lock_.lock();
    uint64_t n = seq_;
    lock_.unlock();
    return n;
  }
  size_t capacity() const { return buf_.size(); }

 private:
  mutable RingLock lock_{"trace.ring"};
  uint64_t seq_ = 0;  // total events ever emitted; next write slot = seq_ & mask_
  size_t mask_;
  std::vector<TraceEvent> buf_;
};

// One worker's retained trace plus identity, as returned by CollectRings().
struct NamedRing {
  int worker_id = 0;
  int socket = 0;
  uint64_t emitted = 0;  // events ever emitted (emitted - events.size() dropped)
  std::vector<TraceEvent> events;
};

// ---------------------------------------------------------------------------
// Global gates.
// ---------------------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_scope_timing;

struct ThreadBinding {
  TraceRing* ring = nullptr;                        // null until first enabled emit
  const std::atomic<uint64_t>* vclock = nullptr;    // bound worker virtual clock
  uint8_t component = 0;                            // innermost active Component
  // Exclusive virtual-ns per component (scope timing).
  uint64_t comp_ns[kNumComponents] = {};
  uint64_t last_mark = 0;
};
// constinit: guarantees constant initialization so every TU accesses the
// variable directly instead of through the TLS init-guard wrapper — the
// guard check would otherwise sit on the simulator's per-fence hot path
// (CurrentComponent()).
extern constinit thread_local ThreadBinding tl_binding;

// Factory installed by pmsim: creates/returns the current ThreadContext's
// ring (registering it for collection) or nullptr if no context is live.
using RingFactory = TraceRing* (*)();
extern std::atomic<RingFactory> g_ring_factory;

void EmitSlow(EventType type, uint64_t arg, uint32_t aux, uint16_t dimm);
}  // namespace detail

inline bool Enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on);

// The CCL_TRACE switch (DESIGN.md §13): true when CCL_TRACE=1 and
// CCL_METRICS names the run's dump, into which each measured phase then
// writes its trace rings and the device's XPLine heatmap. Unset or "0" is
// off. Any other value, such as a path, and "1" without CCL_METRICS, is
// named once per process on stderr and leaves tracing off.
bool TracingRequested();

inline bool ScopeTimingEnabled() {
  return detail::g_scope_timing.load(std::memory_order_relaxed);
}
void SetScopeTiming(bool on);

// ---------------------------------------------------------------------------
// Per-thread binding, maintained by pmsim::ThreadContext.
// ---------------------------------------------------------------------------

// Installs the current logical worker's ring + virtual clock in this OS
// thread's slots. Pass nulls when no worker is current.
inline void BindThread(TraceRing* ring, const std::atomic<uint64_t>* vclock) {
  detail::tl_binding.ring = ring;
  detail::tl_binding.vclock = vclock;
}

void SetRingFactory(detail::RingFactory factory);

inline uint64_t ThreadVirtualNow() {
  const std::atomic<uint64_t>* clock = detail::tl_binding.vclock;
  return clock == nullptr ? 0 : clock->load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Emission + attribution.
// ---------------------------------------------------------------------------

inline Component CurrentComponent() {
  return static_cast<Component>(detail::tl_binding.component);
}

namespace detail {
// Charges virtual time since the last mark to `comp` (exclusive-time
// accounting: an inner scope's time never double-counts in its parent).
inline void ChargeScopeTimeUpTo(uint8_t comp) {
  const std::atomic<uint64_t>* clock = tl_binding.vclock;
  uint64_t now = clock == nullptr ? 0 : clock->load(std::memory_order_relaxed);
  ThreadBinding& b = tl_binding;
  if (now > b.last_mark) {
    b.comp_ns[comp] += now - b.last_mark;
  }
  b.last_mark = now;  // also resynchronizes after a clock reset/worker switch
}
}  // namespace detail

// Charges time up to "now" to the current component. The bench driver calls
// this at operation boundaries so ThreadComponentNs() deltas cover the whole
// op (time after the last scope exit would otherwise be charged lazily at
// the next scope entry, possibly inside the next op).
inline void FlushScopeTime() {
  if (ScopeTimingEnabled()) {
    detail::ChargeScopeTimeUpTo(detail::tl_binding.component);
  }
}

// The hot-path emit: one relaxed load + predicted branch when disabled.
inline void Emit(EventType type, uint64_t arg = 0, uint32_t aux = 0,
                 uint16_t dimm = kNoDimm) {
  if (!Enabled()) {
    return;
  }
  detail::EmitSlow(type, arg, aux, dimm);
}

// RAII attribution scope. Construction/destruction cost when tracing and
// scope timing are off: two thread-local byte moves and two predicted
// branches.
class TraceScope {
 public:
  explicit TraceScope(Component c) : prev_(detail::tl_binding.component) {
    if (ScopeTimingEnabled()) {
      detail::ChargeScopeTimeUpTo(prev_);
    }
    detail::tl_binding.component = static_cast<uint8_t>(c);
    if (Enabled()) {
      detail::EmitSlow(EventType::kScopeBegin, 0, 0, kNoDimm);
    }
  }
  ~TraceScope() {
    if (ScopeTimingEnabled()) {
      detail::ChargeScopeTimeUpTo(detail::tl_binding.component);
    }
    if (Enabled()) {
      detail::EmitSlow(EventType::kScopeEnd, 0, 0, kNoDimm);
    }
    detail::tl_binding.component = prev_;
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  uint8_t prev_;
};

// Scope-timing table of the calling OS thread (kNumComponents entries).
// The driver snapshots it around each operation to build per-component
// latency histograms.
inline const uint64_t* ThreadComponentNs() { return detail::tl_binding.comp_ns; }

// ---------------------------------------------------------------------------
// Registry: rings of retired workers are folded here so a dump at the end of
// a run sees every worker's events even though the driver destroys its
// ThreadContexts at phase boundaries.
// ---------------------------------------------------------------------------

// Creates a ring owned by the registry and associates it with (worker_id,
// socket). Returns a stable pointer the owner emits into; the registry keeps
// ownership, so the events survive the worker. The owner must call
// ReleaseRing when it goes away.
TraceRing* AcquireRing(int worker_id, int socket);

// Marks the ring's owner as gone. The ring and its events stay collectable
// until the next ClearRings().
void ReleaseRing(TraceRing* ring);

// Snapshot of every ring acquired since the last ClearRings(), in
// acquisition order. Live writers are tolerated (spinlock-consistent
// copies that may miss in-flight events).
std::vector<NamedRing> CollectRings();

// Frees released rings and empties still-owned ones (a long-lived background
// worker keeps its ring across runs but starts the next run clean).
void ClearRings();

}  // namespace cclbt::trace

#endif  // SRC_TRACE_TRACE_H_
