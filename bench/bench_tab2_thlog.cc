// Table 2: sensitivity of the GC trigger threshold TH_log (10%..35%):
// insert throughput stays flat (locality-aware GC is cheap) while the peak
// log size tracks the threshold.
#include <string>

#include "bench/bench_common.h"
#include "src/core/ccl_btree.h"

namespace cclbt::bench {
namespace {

void RegisterAll() {
  uint64_t scale = BenchScale();
  for (int th_log : {10, 15, 20, 25, 30, 35}) {
    std::string bench_name = "tab2/thlog:" + std::to_string(th_log);
    benchmark::RegisterBenchmark(bench_name.c_str(), [=](benchmark::State& state) {
      for (auto _ : state) {
        kvindex::RuntimeOptions runtime_options;
        runtime_options.device.pool_bytes = 2ULL << 30;
        kvindex::Runtime runtime(runtime_options);
        core::TreeOptions tree_options;
        tree_options.th_log_pct = th_log;
        core::CclBTree tree(runtime, tree_options);

        RunConfig config;
        config.threads = 48;
        config.warm_keys = scale;
        config.ops = scale;
        config.op = OpType::kInsert;
        RunResult result = RunWorkload(runtime, tree, config);

        state.counters["insert_Mops"] = result.mops;
        state.counters["peak_log_MB"] = static_cast<double>(tree.log_peak_bytes()) / 1e6;
        state.counters["gc_rounds"] = static_cast<double>(tree.gc_rounds());
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
