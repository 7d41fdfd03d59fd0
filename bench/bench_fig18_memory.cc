// Figure 18: DRAM and PM consumption of every index after bulk-loading,
// sweeping the value size (8-512 B; larger values go out-of-band through
// indirection pointers). Pure-PM indexes (FAST&FAIR, PACTree) report ~zero
// DRAM; µTree's per-KV DRAM index rivals its PM usage; CCL-BTree's buffer
// nodes add a bounded DRAM fraction.
#include <string>

#include "bench/bench_common.h"

namespace cclbt::bench {
namespace {

void RegisterAll() {
  uint64_t scale = BenchScale();
  for (size_t value_bytes : {8, 32, 128, 512}) {
    for (const std::string& name : TreeIndexNames()) {
      std::string bench_name = "fig18/" + name + "/value:" + std::to_string(value_bytes);
      benchmark::RegisterBenchmark(bench_name.c_str(), [=](benchmark::State& state) {
        for (auto _ : state) {
          RunConfig config;
          config.threads = 48;
          config.warm_keys = scale;
          config.ops = scale;
          config.op = OpType::kInsert;
          config.value_bytes = value_bytes;
          RunResult result = RunIndexWorkload(name, config, {}, {.pool_bytes = 8ULL << 30});
          state.counters["DRAM_MB"] = static_cast<double>(result.footprint.dram_bytes) / 1e6;
          state.counters["PM_MB"] = static_cast<double>(result.footprint.pm_bytes) / 1e6;
          state.counters["dram_pct"] =
              100.0 * static_cast<double>(result.footprint.dram_bytes) /
              static_cast<double>(result.footprint.dram_bytes + result.footprint.pm_bytes);
        }
      })->Iterations(1)->Unit(benchmark::kMillisecond);
    }
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
