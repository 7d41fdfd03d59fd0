// Figure 15(d): dataset-size sweep at 96 threads (the paper's 100 M..1000 M
// keys, scaled). CCL-BTree's throughput should stay flat with dataset size;
// everyone else stays bandwidth-bound at their own level.
#include <string>

#include "bench/bench_common.h"

namespace cclbt::bench {
namespace {

void RegisterAll() {
  uint64_t scale = BenchScale();
  for (uint64_t mult : {1, 2, 5, 10}) {
    for (const std::string& name : TreeIndexNames()) {
      std::string bench_name = "fig15d/" + name + "/keys:" + std::to_string(scale * mult);
      benchmark::RegisterBenchmark(bench_name.c_str(), [=](benchmark::State& state) {
        for (auto _ : state) {
          RunConfig config;
          config.threads = 96;
          config.warm_keys = scale * mult / 2;
          config.ops = scale * mult / 2;
          config.op = OpType::kInsert;
          RunResult result = RunIndexWorkload(name, config, {}, {.pool_bytes = 8ULL << 30});
          SetCommonCounters(state, result);
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
