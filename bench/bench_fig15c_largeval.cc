// Figure 15(c): large values (64-512 B, 8 B keys) at 96 threads. Values live
// out-of-band; the tree stores indirection pointers. The relative advantage
// of CCL-BTree shrinks as value bytes dominate the media traffic, but the
// pointer flushes still benefit from batching.
#include <string>

#include "bench/bench_common.h"

namespace cclbt::bench {
namespace {

void RegisterAll() {
  uint64_t scale = BenchScale();
  for (size_t value_bytes : {64, 128, 256, 512}) {
    for (const std::string& name : TreeIndexNames()) {
      std::string bench_name = "fig15c/" + name + "/value:" + std::to_string(value_bytes);
      benchmark::RegisterBenchmark(bench_name.c_str(), [=](benchmark::State& state) {
        for (auto _ : state) {
          RunConfig config;
          config.threads = 96;
          config.warm_keys = scale / 2;
          config.ops = scale / 2;
          config.op = OpType::kInsert;
          config.value_bytes = value_bytes;
          RunResult result = RunIndexWorkload(name, config, {}, {.pool_bytes = 4ULL << 30});
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
