// Figure 14: insert throughput under the three GC strategies (w/o GC,
// locality-aware GC, naive GC). Each row warms the tree with `scale` keys,
// then inserts `scale` fresh ones on 48 workers while GC fires at the TH_log
// trigger on the cooperative quantum. Naive GC's stop-the-world random
// flush-back craters the insert rate; locality-aware GC costs little.
//
// The timeline is the run's epoch series: with CCL_METRICS set, each row
// writes a .pmmetrics dump and `pmctl series` prints it. The rows report
// the slowest complete epoch as min_epoch_Mops.
#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "bench/bench_common.h"

namespace cclbt::bench {
namespace {

// The lowest ops / (t_ns - previous t_ns) over every epoch but the final
// partial one, in Mop/s (pmctl top's per-epoch Mops); 0 with no complete
// epoch.
double MinEpochMops(const metrics::EpochSeries& epochs) {
  double lowest = std::numeric_limits<double>::infinity();
  uint64_t prev_t = 0;
  for (size_t i = 0; i + 1 < epochs.size(); i++) {
    const uint64_t dt = epochs[i].t_ns - prev_t;
    prev_t = epochs[i].t_ns;
    lowest = std::min(lowest, static_cast<double>(epochs[i].TotalOps()) * 1e3 /
                                  static_cast<double>(dt));
  }
  return epochs.size() < 2 ? 0.0 : lowest;
}

void RegisterAll() {
  uint64_t scale = BenchScale();
  const std::pair<const char*, core::GcMode> kModes[] = {
      {"none", core::GcMode::kNone},
      {"locality", core::GcMode::kLocalityAware},
      {"naive", core::GcMode::kNaive}};
  for (const auto& [name, mode] : kModes) {
    std::string bench_name = std::string("fig14/gc:") + name;
    benchmark::RegisterBenchmark(bench_name.c_str(), [=](benchmark::State& state) {
      for (auto _ : state) {
        RunConfig config;
        config.threads = 48;
        config.warm_keys = scale;
        config.ops = scale;
        config.op = OpType::kInsert;
        config.metrics = true;
        config.label = std::string("fig14_gc_") + name;
        IndexConfig index_config;
        index_config.tree.gc_mode = mode;
        // The pool size sets the address-to-DIMM map, so it stays 4 GiB.
        RunResult result =
            RunIndexWorkload("cclbtree", config, index_config, {.pool_bytes = 4ULL << 30});
        SetCommonCounters(state, result);
        const metrics::EpochRecord& last = result.epochs.back();
        state.counters["gc_rounds"] = static_cast<double>(last.Gauge("gc_rounds"));
        state.counters["peak_log_MB"] = static_cast<double>(last.Gauge("log_peak_bytes")) / 1e6;
        state.counters["min_epoch_Mops"] = MinEpochMops(result.epochs);
      }
    })->Iterations(1)->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace cclbt::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  cclbt::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
