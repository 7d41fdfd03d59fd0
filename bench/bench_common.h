// Shared plumbing for the per-figure/table benchmark binaries.
//
// Every binary registers its sweep as google-benchmark instances (one row
// per configuration) and reports the modeled metrics as counters:
//   Mops    modeled throughput (virtual time; see DESIGN.md §1)
//   XBI     XBI-amplification (media bytes / user bytes)
//   CLI     CLI-amplification (XPBuffer bytes / user bytes)
// plus experiment-specific counters. Wall time shown by the harness is the
// host execution time and is NOT the reported metric.
//
// Scaling: the paper uses 50 M warm + 50 M op datasets; binaries default to
// a laptop-friendly scale and honor CCL_BENCH_SCALE (number of measured ops;
// warm keys scale with it) so the full-size runs remain possible.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/bench/driver.h"
#include "src/pmsim/media_model.h"
#include "src/trace/component.h"

namespace cclbt::bench {

// A named persistence-domain configuration for backend-parameterized benches
// (DESIGN.md §14): the device the rows run on — backend plus the unit/buffer
// geometry that defines it. Benches copy it into their RuntimeOptions and set
// the pool size on top.
struct BackendSpec {
  std::string name;  // row segment, e.g. "adr", "eadr", "cxl4096"
  pmsim::DeviceConfig device;
};

// The CXL-mem backend at `unit_bytes` media units. Buffer capacity is held at
// 64 units, so a unit-size sweep isolates the granularity effect.
inline pmsim::DeviceConfig CxlDevice(size_t unit_bytes) {
  return {.xpbuffer_bytes = 64 * unit_bytes,
          .xpline_bytes = unit_bytes,
          .backend = pmsim::MediaBackend::kCxlMem};
}

// The backend sweep for bench_backend_matrix: the ADR/Optane baseline, the
// flush-free eADR domain, and page-granular CXL-mem at 1 KB and 4 KB units.
inline std::vector<BackendSpec> MatrixBackends() {
  return {{"adr", {.backend = pmsim::MediaBackend::kAdrOptane}},
          {"eadr", {.backend = pmsim::MediaBackend::kEadr}},
          {"cxl1024", CxlDevice(1024)},
          {"cxl4096", CxlDevice(4096)}};
}

inline uint64_t BenchScale(uint64_t default_ops = 400'000) {
  const char* env = std::getenv("CCL_BENCH_SCALE");
  if (env != nullptr) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) {
      return v;
    }
  }
  return default_ops;
}

inline void SetCommonCounters(benchmark::State& state, const RunResult& result) {
  state.counters["Mops"] = result.mops;
  state.counters["XBI"] = result.xbi_amplification;
  state.counters["CLI"] = result.cli_amplification;
  state.counters["virt_ms"] = result.elapsed_virtual_ms;
  // Per-component media-write attribution (pmtrace scopes), nonzero only so
  // benches that exercise few components stay uncluttered.
  for (int c = 0; c < trace::kNumComponents; c++) {
    uint64_t bytes = result.stats.media_write_bytes_by_component[c];
    if (bytes != 0) {
      std::string key = std::string("mwB_") +
                        trace::ComponentName(static_cast<trace::Component>(c));
      state.counters[key] = static_cast<double>(bytes);
    }
  }
}

inline void SetLatencyCounters(benchmark::State& state, const RunResult& result) {
  state.counters["p50_us"] = static_cast<double>(result.latency.Percentile(50)) / 1e3;
  state.counters["p90_us"] = static_cast<double>(result.latency.Percentile(90)) / 1e3;
  state.counters["p99_us"] = static_cast<double>(result.latency.Percentile(99)) / 1e3;
  state.counters["p999_us"] = static_cast<double>(result.latency.Percentile(99.9)) / 1e3;
  state.counters["min_us"] = static_cast<double>(result.latency.Min()) / 1e3;
}

// Per-component latency percentiles (requires collect_component_latency).
// Only components that recorded ops are reported; the histogram records, for
// each op, the virtual time spent under that component's trace scope.
inline void SetComponentLatencyCounters(benchmark::State& state, const RunResult& result) {
  for (int c = 0; c < trace::kNumComponents; c++) {
    const metrics::Histogram& h = result.component_latency[static_cast<size_t>(c)];
    if (h.Count() == 0) {
      continue;
    }
    std::string comp = trace::ComponentName(static_cast<trace::Component>(c));
    state.counters[comp + "_p50_us"] = static_cast<double>(h.Percentile(50)) / 1e3;
    state.counters[comp + "_p99_us"] = static_cast<double>(h.Percentile(99)) / 1e3;
    state.counters[comp + "_p999_us"] = static_cast<double>(h.Percentile(99.9)) / 1e3;
  }
}

// Runs the workload once inside the benchmark state loop.
template <typename Fn>
void RunOnce(benchmark::State& state, Fn&& fn) {
  for (auto _ : state) {
    fn(state);
  }
}

}  // namespace cclbt::bench

#endif  // BENCH_BENCH_COMMON_H_
