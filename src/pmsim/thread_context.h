// Per-thread state for the PM simulator: the thread's virtual clock, its
// NUMA socket, its private stats shard, and the set of cachelines flushed
// (clwb'd) but not yet fenced.
//
// Virtual time: every worker advances a private nanosecond clock as it
// performs modeled work (CPU costs, PM read latencies, WPQ back-pressure).
// A run's modeled elapsed time is the max over workers, which is what the
// benches report throughput against. This keeps the performance results
// deterministic and independent of the host machine's core count. Modeled
// workers step on one OS thread (virtual_workers.h); the locks and atomics
// they take are still checked under real concurrency by the tests.
#ifndef SRC_PMSIM_THREAD_CONTEXT_H_
#define SRC_PMSIM_THREAD_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/pmsim/stats.h"
#include "src/trace/trace.h"

namespace cclbt::pmsim {

class PmDevice;

class ThreadContext {
 public:
  // Binds the calling thread to `device` on `socket`. Installs itself as the
  // thread-local current context (restoring the previous one on destruction,
  // so scoped nesting works in tests). `worker_id` identifies the worker for
  // per-thread structures (e.g. CCL-BTree's per-thread WAL); it must be
  // unique among concurrently live contexts of one tree.
  ThreadContext(PmDevice& device, int socket, int worker_id = 0);
  ~ThreadContext();

  ThreadContext(const ThreadContext&) = delete;
  ThreadContext& operator=(const ThreadContext&) = delete;

  // The context installed by the innermost live ThreadContext on this thread;
  // nullptr if none.
  static ThreadContext* Current();

  // Explicitly installs `ctx` (possibly nullptr) as this thread's current
  // context. Used by pmsim::VirtualWorkers to step many modeled workers on
  // one OS thread; the destructor of a manually-switched context leaves the
  // slot untouched unless it is still the current one.
  static void SetCurrent(ThreadContext* ctx);

  PmDevice& device() const { return device_; }
  int socket() const { return socket_; }
  int worker_id() const { return worker_id_; }

  // This context's private counter block; included in the device's
  // Stats::Snapshot() while the context is alive and folded into the base on
  // destruction. Only the thread currently running this context may write it.
  StatsShard& stats_shard() { return stats_; }

  // The clock is atomic (relaxed) because PmDevice::ResetCosts() zeroes the
  // clocks of all registered contexts — including long-lived background
  // threads like CCL-BTree's GC worker — so that every active virtual clock
  // stays comparable with the per-DIMM busy timeline across bench phases.
  uint64_t now_ns() const { return now_ns_.load(std::memory_order_relaxed); }
  void AdvanceCpu(uint64_t ns) {
    now_ns_.store(now_ns_.load(std::memory_order_relaxed) + ns, std::memory_order_relaxed);
  }
  void ResetClock(uint64_t to_ns = 0) { now_ns_.store(to_ns, std::memory_order_relaxed); }
  // Stable address of the clock, bound into the trace library so scopes can
  // timestamp against this worker's virtual time.
  const std::atomic<uint64_t>* now_ns_addr() const { return &now_ns_; }

  // This worker's trace ring: lazily acquired from the trace registry on
  // first use (tracing enabled at construction, or first traced emit via the
  // ring factory), nullptr until then. The registry owns the ring; it is
  // released — but its events stay collectable — on destruction.
  trace::TraceRing* trace_ring() const { return trace_ring_; }
  // Acquires the ring if not yet done and rebinds the calling thread's trace
  // slots. Only call from the thread currently running this context.
  trace::TraceRing* EnsureTraceRing();

 private:
  friend class PmDevice;

  // Records `line` (a line-aligned pool offset) as flushed-but-unfenced.
  // Returns true if the line was newly added, false if already pending.
  // O(1): an epoch-stamped open-addressing set dedups, while pending_lines_
  // keeps first-flush order for commit at fence time (XPBuffer LRU order —
  // and therefore every virtual-time metric — depends on that order).
  bool AddPendingLine(uintptr_t line) {
    size_t idx = PendingHash(line) & (pending_dedup_.size() - 1);
    while (true) {
      DedupSlot& slot = pending_dedup_[idx];
      if (slot.epoch != pending_epoch_) {
        // Stale/empty slot: within one epoch slots never revert to stale, so
        // `line` cannot exist later in this probe chain. Claim it.
        slot.line = line;
        slot.epoch = pending_epoch_;
        break;
      }
      if (slot.line == line) {
        return false;
      }
      idx = (idx + 1) & (pending_dedup_.size() - 1);
    }
    pending_lines_.push_back(line);
    if (pending_lines_.size() * 2 >= pending_dedup_.size()) {
      GrowPendingDedup();
    }
    return true;
  }

  // Empties the pending set. Bumping the epoch lazily invalidates every
  // dedup slot without touching them.
  void ClearPending() {
    pending_lines_.clear();
    pending_epoch_++;
  }

  void GrowPendingDedup() {
    std::vector<DedupSlot> bigger(pending_dedup_.size() * 2);
    pending_epoch_++;
    pending_dedup_.swap(bigger);
    for (uintptr_t line : pending_lines_) {
      size_t idx = PendingHash(line) & (pending_dedup_.size() - 1);
      while (pending_dedup_[idx].epoch == pending_epoch_) {
        idx = (idx + 1) & (pending_dedup_.size() - 1);
      }
      pending_dedup_[idx] = DedupSlot{line, pending_epoch_};
    }
  }

  static size_t PendingHash(uintptr_t line) {
    return static_cast<size_t>((static_cast<uint64_t>(line) * 0x9E3779B97F4A7C15ULL) >> 32);
  }

  struct DedupSlot {
    uintptr_t line = 0;
    uint64_t epoch = 0;  // slot is live iff epoch == pending_epoch_
  };

  PmDevice& device_;
  int socket_;
  int worker_id_;
  std::atomic<uint64_t> now_ns_{0};
  trace::TraceRing* trace_ring_ = nullptr;
  StatsShard stats_;
  // Pool offsets (line-aligned) flushed since the last fence, in first-flush
  // order. pending_dedup_ (power-of-two size, load factor <= 0.5) makes the
  // duplicate check O(1) instead of a linear scan.
  std::vector<uintptr_t> pending_lines_;
  std::vector<DedupSlot> pending_dedup_;
  uint64_t pending_epoch_ = 1;
  ThreadContext* previous_ = nullptr;
};

}  // namespace cclbt::pmsim

#endif  // SRC_PMSIM_THREAD_CONTEXT_H_
