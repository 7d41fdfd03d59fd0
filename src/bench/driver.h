// Workload driver shared by every benchmark binary: spawns worker threads
// with per-thread virtual clocks, runs warm-up + measurement phases, and
// reports modeled throughput, amplification counters and latency
// percentiles. The measurement phase's bracket, epoch series and .pmmetrics
// dump are the MeasuredPhase the service also runs (measured_phase.h); the
// driver adds its closed-loop scheduler and key generation.
//
// Timing model: a run's modeled elapsed time is
//     max( max over workers of their virtual clock ,
//          max over DIMMs of outstanding media work )
// measured over the measurement phase only. See src/pmsim/config.h for the
// cost constants and DESIGN.md §1 for the calibration rationale.
#ifndef SRC_BENCH_DRIVER_H_
#define SRC_BENCH_DRIVER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/bench/index_factory.h"
#include "src/bench/measured_phase.h"
#include "src/common/keyspace.h"
#include "src/common/ycsb.h"
#include "src/kvindex/kv_index.h"
#include "src/kvindex/runtime.h"
#include "src/metrics/histogram.h"
#include "src/pmsim/lockcheck.h"
#include "src/pmsim/pmcheck.h"
#include "src/trace/component.h"

namespace cclbt::bench {

struct RunConfig {
  int threads = 48;
  // Distinct keys loaded before measurement (the paper warms with 50 M).
  uint64_t warm_keys = 1'000'000;
  // Operations in the measurement phase.
  uint64_t ops = 1'000'000;
  // Single-op benches: all ops are of this type. For YCSB mixes set `mix`.
  OpType op = OpType::kInsert;
  const YcsbMix* mix = nullptr;
  KeyDistribution dist = KeyDistribution::kUniform;
  double zipf_theta = 0.9;
  size_t scan_len = 100;
  int threads_per_socket = 48;
  // Enable the metrics registry (src/metrics) for the measurement phase:
  // per-op-kind latency histograms in virtual AND wall time (merged into
  // RunResult::latency), registry counters, and — under sequential
  // scheduling — the series of kMetricsEpochNs virtual-time epochs in
  // RunResult::epochs (windowed XBI/CLI, media bytes by component, latency
  // percentiles, XPBuffer/GC gauges). Also switched on by the CCL_METRICS
  // environment variable, which additionally dumps a .pmmetrics file (see
  // src/bench/measured_phase.h). Epoch records are virtual-time-only and
  // bit-identical run-to-run for a deterministic config; the registry is
  // CPU-side only, so enabling it never shifts a virtual metric.
  bool metrics = false;
  // Additionally break per-op latency down by trace::Component (enables
  // trace scope timing for the measurement phase; fills
  // RunResult::component_latency).
  bool collect_component_latency = false;
  // Label stamped into the .pmtrace dump written when CCL_TRACE is set
  // (RunIndexWorkload defaults it to the index name).
  std::string trace_label;
  // Values larger than 8 B go through ValueStore indirection; the stored
  // word is the handle (paper §4.4 Opt. 3). 0/8 = inline.
  size_t value_bytes = 8;
  // Variable-size keys: modeled by charging key-blob PM reads during
  // traversal (see DESIGN.md §6). 0/8 = inline keys.
  size_t key_bytes = 8;
  // Preset key set (e.g. SOSD datasets); overrides dist for inserts.
  const std::vector<uint64_t>* preset_keys = nullptr;
  uint64_t seed = 99;
  // Additionally call KvIndex::GcTick() every gc_epoch_ops-th measured op
  // (0 = off), pinning background-GC rounds to explicit virtual-time epochs
  // of the driver instead of the index's own cooperative quantum. Sequential
  // scheduling only; ignored under os_parallel (a shared op counter would
  // race). Useful for read-heavy mixes whose sparse upserts would starve the
  // index-side quantum.
  uint64_t gc_epoch_ops = 0;
  // Execute the logical workers on real OS threads. Sequential execution
  // (the default) is fully deterministic: the same RunConfig yields
  // bit-identical virtual-time metrics run after run — including indexes
  // with background GC, which runs at deterministic virtual-time points
  // under GcScheduling::kDeterministic (the default; see DESIGN.md §10).
  // The only escape from the contract is TreeOptions::gc_scheduling =
  // kOsThread, which reintroduces a free-running GC thread for concurrency
  // stress. With one worker, os_parallel on/off is also bit-identical. With
  // several workers, os_parallel results differ slightly run-to-run:
  // real-thread interleaving changes lock-acquisition order and XPBuffer LRU
  // state, so eviction counts and queueing delays shift within noise.
  // Concurrency correctness is covered by the test suite, which always uses
  // real threads.
  bool os_parallel = false;
  // Enable the pmcheck persistency checker (DESIGN.md §11) on the run's
  // device. Equivalent to CCL_PMCHECK=1 (the environment variable overrides
  // in either direction). Diagnostics are returned in RunResult::pmcheck and,
  // when a trace dump is written, appended to it for `pmctl check`. Never
  // perturbs virtual-time metrics.
  bool pmcheck = false;
  // Enable the lockcheck lockset/lock-order sanitizer (DESIGN.md §16) on the
  // run's device. Equivalent to CCL_LOCKCHECK=1 (the environment variable
  // overrides in either direction). Diagnostics are returned in
  // RunResult::lockcheck and, when a trace dump is written, appended to it
  // for `pmctl locks`. Never perturbs virtual-time metrics.
  bool lockcheck = false;
  // Persistence-domain backend for the run's device (DESIGN.md §14). kAuto
  // resolves through DeviceConfig's legacy eadr flag, then the CCL_BACKEND
  // environment selector, then defaults to ADR/Optane.
  pmsim::MediaBackend backend = pmsim::MediaBackend::kAuto;
  // Media write-combining unit override in bytes (DeviceConfig::xpline_bytes;
  // 0 = keep the backend default). CXL page-granular runs set 256..4096.
  size_t media_unit_bytes = 0;
  // Buffer-capacity override in bytes (DeviceConfig::xpbuffer_bytes; 0 =
  // keep the backend default).
  size_t media_buffer_bytes = 0;
  // CXL only: model a volatile device-side write-combining buffer instead of
  // a persistent one (committed lines stage until unit eviction).
  bool cxl_volatile_buffer = false;
};

// Measurement-phase results (PhaseResult: elapsed time, stats delta, CLI/XBI,
// registry totals, epochs, .pmmetrics path) plus the driver's own fields.
struct RunResult : PhaseResult {
  double mops = 0;                 // modeled throughput, Mop/s
  double max_worker_vtime_ms = 0;  // slowest worker's clock (latency-bound part)
  double max_dimm_busy_ms = 0;     // busiest DIMM's media work (bandwidth-bound part)
  metrics::Histogram latency;      // per-op virtual latencies, all kinds (if metrics)
  // Per-component share of each op's virtual latency (only ops that spent
  // time in the component are recorded; see collect_component_latency).
  std::array<metrics::Histogram, trace::kNumComponents> component_latency;
  // Path of the .pmtrace dump written for this run ("" when CCL_TRACE unset).
  std::string trace_dump_path;
  kvindex::MemoryFootprint footprint;
  // pmcheck report (enabled == false unless the checker ran). RunIndexWorkload
  // refreshes it after an end-of-run DrainBuffers so the unflushed-at-close
  // class is included; RunWorkload alone reports the phases it saw.
  pmsim::PmCheckReport pmcheck;
  // lockcheck report (enabled == false unless the checker ran). Snapshot at
  // measurement end; the event stream keeps flowing until the runtime dies,
  // but counts only grow, so a clean snapshot of a finished run stays clean.
  pmsim::LockCheckReport lockcheck;
  // Configuration the driver could not honor (e.g. gc_epoch_ops or the
  // metrics epoch series under os_parallel, which are sequential-scheduling
  // features). Each dropped request produces one entry here and one warning
  // line on stderr — a set config is never ignored silently.
  std::vector<std::string> warnings;
};

// Loads `config.warm_keys` distinct keys (or the preset set), then runs the
// measurement phase and returns the metrics. The index must be freshly
// created on `runtime`.
RunResult RunWorkload(kvindex::Runtime& runtime, kvindex::KvIndex& index, const RunConfig& config);

// Convenience: build runtime + index, run, tear down.
RunResult RunIndexWorkload(const std::string& index_name, const RunConfig& config,
                           const IndexConfig& index_config = {},
                           size_t pool_bytes = 2ULL << 30);

// Key for warm-phase position i (dense scrambled space of warm_keys).
uint64_t WarmKey(const RunConfig& config, uint64_t i);

}  // namespace cclbt::bench

#endif  // SRC_BENCH_DRIVER_H_
