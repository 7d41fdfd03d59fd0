// Figure 16: eADR mode — flush instructions removed (persistence is free),
// but implicit CPU-cache evictions reach the XPBuffer in arbitrary order,
// destroying XPLine locality. CCL-BTree still leads (batched leaf writes
// keep locality), and — the paper's counter-intuitive observation — overall
// throughput is LOWER than ADR-with-explicit-flushes for locality-aware
// designs.
#include <string>

#include "bench/bench_common.h"

namespace cclbt::bench {
namespace {

void RegisterAll() {
  uint64_t scale = BenchScale();
  // The eADR persistence-domain backend (DESIGN.md §14); crash tracking off —
  // this is a perf run only.
  const BackendSpec spec{"eadr",
                         {.backend = pmsim::MediaBackend::kEadr, .crash_tracking = false}};
  for (const std::string& name : TreeIndexNames()) {
    for (int threads : {1, 24, 48, 72, 96}) {
      std::string bench_name = "fig16/" + name + "/threads:" + std::to_string(threads);
      benchmark::RegisterBenchmark(bench_name.c_str(), [=](benchmark::State& state) {
        for (auto _ : state) {
          kvindex::RuntimeOptions runtime_options;
          runtime_options.device = spec.device;
          runtime_options.device.pool_bytes = 2ULL << 30;
          kvindex::Runtime runtime(runtime_options);
          auto index = MakeIndex(name, runtime, {});
          RunConfig config;
          config.threads = threads;
          config.warm_keys = scale;
          config.ops = scale;
          config.op = OpType::kInsert;
          RunResult result = RunWorkload(runtime, *index, config);
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
