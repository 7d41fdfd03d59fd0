// Lock-free, per-worker metrics registry: the always-compiled numeric
// telemetry layer (counters + per-op-type latency histograms), runtime-gated
// the same way as pmtrace (src/trace/trace.h):
//
//  * The disabled path is ONE relaxed load of a global flag per record site
//    — no TLS init-guard (the shard pointer is constinit), no shard is
//    allocated until the first enabled record on a thread, and no counter
//    memory is touched. Disabled cost sits inside the repo's ≤2% budget.
//  * The enabled path is single-writer: each OS thread owns a
//    cacheline-aligned MetricsShard (relaxed load+store increments, no RMW).
//    Shards are owned by a global registry and survive thread death, so a
//    snapshot at the end of a run sees every worker's counts even though the
//    driver's OS threads are gone (same lifecycle as pmtrace rings).
//  * CPU-side only, by construction: nothing here touches pmsim state, so
//    the flush schedule and every virtual-time metric are bit-identical with
//    the gate on or off. Gauges (XPBuffer occupancy, GC backlog) are pulled
//    from existing accessors at epoch boundaries by the measured phase
//    (src/bench/measured_phase.h), never pushed from hot paths.
//
// Consistency contract (same as pmsim::Stats): Snapshot()/Reset() are exact
// only when no thread is concurrently recording (quiesced, as at phase
// boundaries). Concurrent counter reads are relaxed-atomic (well-defined,
// possibly missing in-flight increments); histograms are single-writer and
// must only be merged when their writer is quiesced.
//
// Layering: depends on nothing in the repo but src/metrics/histogram.h.
// Wall time enters only through the sanctioned shim (src/metrics/clock.h,
// lint R6) and only via RecordOp's wall argument.
#ifndef SRC_METRICS_METRICS_H_
#define SRC_METRICS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/metrics/histogram.h"

namespace cclbt::metrics {

// The single source of truth for the counter set (same X-macro discipline as
// CCLBT_PMSIM_STATS_FIELDS): C(enumerator, "wire name").
#define CCLBT_METRICS_COUNTERS(C)                                              \
  C(kBufferAbsorbs, "buffer_absorbs")        /* upserts absorbed by a buffer   \
                                                node, no leaf flush (§3.2) */  \
  C(kBufferFlushes, "buffer_flushes")        /* buffer-node batch flushes */   \
  C(kBufferFlushEntries, "buffer_flush_entries") /* KVs per flush batch */     \
  C(kWalAppendBytes, "wal_append_bytes")     /* log growth */                  \
  C(kWalReleaseBytes, "wal_release_bytes")   /* log reclaimed by GC */         \
  C(kGcRounds, "gc_rounds")                  /* GC rounds completed */         \
  C(kServiceAdmits, "service_admits")        /* requests admitted into a      \
                                                shard queue (src/service) */  \
  C(kServiceSheds, "service_sheds")          /* requests rejected by          \
                                                admission control */          \
  C(kServiceBatches, "service_batches")      /* group-commit batches executed */

enum class Counter : uint8_t {
#define CCLBT_METRICS_ENUM(name, wire) name,
  CCLBT_METRICS_COUNTERS(CCLBT_METRICS_ENUM)
#undef CCLBT_METRICS_ENUM
      kCount,
};
inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);

const char* CounterName(Counter c);

// Operation kinds for latency histograms. bench::ExecuteOp maps OpType onto
// these: insert/update/delete are all upsert-class writes (the paper
// implements all three as upsert, §4.2); recover is recorded by the recovery
// harness.
enum class OpKind : uint8_t { kUpsert = 0, kLookup = 1, kScan = 2, kRecover = 3, kCount = 4 };
inline constexpr int kNumOpKinds = static_cast<int>(OpKind::kCount);

const char* OpKindName(OpKind k);

// One OS thread's private metric block. Exactly one thread writes it; other
// threads only read (Snapshot, relaxed loads for counters; histograms only
// when the writer is quiesced). alignas(64) keeps shards off each other's
// cachelines.
struct alignas(64) MetricsShard {
  std::atomic<uint64_t> counters[kNumCounters] = {};
  Histogram op_virtual[kNumOpKinds];  // per-op virtual-time latency (ns)
  Histogram op_wall[kNumOpKinds];     // per-op host wall latency (ns)
};

// Merged view of every shard since the last Reset().
struct MetricsSnapshot {
  uint64_t counters[kNumCounters] = {};
  Histogram op_virtual[kNumOpKinds];
  Histogram op_wall[kNumOpKinds];

  uint64_t counter(Counter c) const { return counters[static_cast<size_t>(c)]; }
  const Histogram& virt(OpKind k) const { return op_virtual[static_cast<size_t>(k)]; }
  const Histogram& wall(OpKind k) const { return op_wall[static_cast<size_t>(k)]; }
};

namespace detail {
extern std::atomic<bool> g_enabled;
// constinit: constant-initialized so record sites access the slot directly
// instead of through the TLS init-guard wrapper (same rationale as
// trace::detail::tl_binding — the guard check would sit on index hot paths).
extern constinit thread_local MetricsShard* tl_shard;
// Slow path: allocates/reuses a registry-owned shard for this thread and
// installs it in tl_shard. Never returns nullptr.
MetricsShard* AcquireShard();

inline void Bump(std::atomic<uint64_t>& c, uint64_t n) {
  // Single-writer increment: relaxed load+store lowers to a plain add.
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}
}  // namespace detail

inline bool Enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on);

inline MetricsShard* Shard() {
  MetricsShard* s = detail::tl_shard;
  return s != nullptr ? s : detail::AcquireShard();
}

// The hot-path counter bump: one relaxed load + predicted branch when the
// gate is off; a TLS pointer read and a plain add when on.
inline void Add(Counter c, uint64_t n = 1) {
  if (!Enabled()) {
    return;
  }
  detail::Bump(Shard()->counters[static_cast<size_t>(c)], n);
}

// Records one operation's latency in both clocks. Callers pass wall_ns
// deltas derived from metrics::WallNowNs() (the sanctioned shim) only.
inline void RecordOp(OpKind k, uint64_t virtual_ns, uint64_t wall_ns) {
  if (!Enabled()) {
    return;
  }
  MetricsShard* s = Shard();
  s->op_virtual[static_cast<size_t>(k)].Record(virtual_ns);
  s->op_wall[static_cast<size_t>(k)].Record(wall_ns);
}

// Merged totals of every shard (base semantics: shards of dead threads are
// retained until Reset). Exact when quiesced; see file header.
MetricsSnapshot Snapshot();

// Zeroes every shard (live and retired). Quiesce writers first for exact
// semantics. Shards are never freed — TLS pointers in live threads stay
// valid — so NumShards() is monotone within a process modulo reuse.
void Reset();

// Number of shards ever registered and not reused; 0 until the first
// enabled record. The disabled gate must never register a shard.
size_t NumShards();

}  // namespace cclbt::metrics

#endif  // SRC_METRICS_METRICS_H_
