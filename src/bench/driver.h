// Workload driver shared by every benchmark binary: steps virtual workers
// (pmsim::VirtualWorkers), runs warm-up + measurement phases, and
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
#include "src/pmsim/config.h"
#include "src/trace/component.h"

namespace cclbt::bench {

struct RunConfig {
  // Modeled workers, stepped one op at a time on the calling OS thread: the
  // same RunConfig gives bit-identical virtual metrics (DESIGN.md §10).
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
  // Record the measurement phase's metrics: per-op-kind latency histograms
  // in virtual AND wall time (merged into RunResult::latency; the wall
  // clock is read per op only with this on), and the series of
  // kMetricsEpochNs virtual-time epochs in RunResult::epochs (windowed
  // XBI/CLI, media bytes by component, latency percentiles, XPBuffer and
  // index gauges). Also switched on by the CCL_METRICS environment
  // variable, which additionally dumps a .pmmetrics file (see
  // src/bench/measured_phase.h). Epoch records are virtual-time-only and
  // bit-identical run-to-run for a deterministic config; recording is
  // CPU-side only, so enabling it never shifts a virtual metric.
  bool metrics = false;
  // Additionally break per-op latency down by trace::Component (enables
  // trace scope timing for the measurement phase; fills
  // RunResult::component_latency).
  bool collect_component_latency = false;
  // Label of the run's .pmmetrics dump and of its checker summaries
  // (RunIndexWorkload defaults it to the index name).
  std::string label;
  // Values larger than 8 B go through ValueStore indirection; the stored
  // word is the handle (paper §4.4 Opt. 3). 0/8 = inline.
  size_t value_bytes = 8;
  // Variable-size keys: modeled by charging key-blob PM reads during
  // traversal (see DESIGN.md §6). 0/8 = inline keys.
  size_t key_bytes = 8;
  // Preset key set (e.g. SOSD datasets); overrides dist for inserts.
  const std::vector<uint64_t>* preset_keys = nullptr;
  uint64_t seed = 99;
};

// Measurement-phase results (PhaseResult: elapsed time, stats delta, CLI/XBI,
// op histograms, epochs, checker reports, .pmmetrics path) plus the
// driver's own fields. RunIndexWorkload refreshes `pmcheck` after an
// end-of-run DrainBuffers, so the unflushed-at-close class is included;
// RunWorkload alone reports the phase it saw.
struct RunResult : PhaseResult {
  double mops = 0;                 // modeled throughput, Mop/s
  double max_worker_vtime_ms = 0;  // slowest worker's clock (latency-bound part)
  double max_dimm_busy_ms = 0;     // busiest DIMM's media work (bandwidth-bound part)
  metrics::Histogram latency;      // per-op virtual latencies, all kinds (if metrics)
  // Per-component share of each op's virtual latency (only ops that spent
  // time in the component are recorded; see collect_component_latency).
  std::array<metrics::Histogram, trace::kNumComponents> component_latency;
  kvindex::MemoryFootprint footprint;
};

// Loads `config.warm_keys` distinct keys (or the preset set), then runs the
// measurement phase and returns the metrics. The index must be freshly
// created on `runtime`.
RunResult RunWorkload(kvindex::Runtime& runtime, kvindex::KvIndex& index, const RunConfig& config);

// Convenience: build a runtime on `device` (pool, backend, checkers; the
// default is a 2 GiB pool on the kAuto backend) and an index, run, tear down.
// With pmcheck on, the teardown runs the unflushed-at-close scan and appends
// the final pmcheck record to the run's dump; each enabled checker's report
// is summarized on stderr.
RunResult RunIndexWorkload(const std::string& index_name, const RunConfig& config,
                           const IndexConfig& index_config = {},
                           pmsim::DeviceConfig device = {.pool_bytes = 2ULL << 30});

// Key for warm-phase position i (dense scrambled space of warm_keys).
uint64_t WarmKey(const RunConfig& config, uint64_t i);

}  // namespace cclbt::bench

#endif  // SRC_BENCH_DRIVER_H_
