// Extra ablation (not in the paper): XPBuffer-capacity sensitivity. With a
// larger write-combining buffer, random flush streams combine better and the
// XBI gap between CCL-BTree and an unbuffered design narrows — validating
// that the simulator's XBI numbers come from the buffer model, not from an
// unrelated constant.
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace cclbt::bench {
namespace {

void RegisterAll() {
  uint64_t scale = BenchScale();
  for (size_t xpbuffer_kb : {4, 16, 64, 256}) {
    const std::vector<std::string> kIndexes = {"fptree", "cclbtree"};
    for (const std::string& name : kIndexes) {
      std::string bench_name =
          "extra_xpbuf/" + name + "/kb:" + std::to_string(xpbuffer_kb);
      // Pinned to the ADR/Optane backend (DESIGN.md §14): the ablation sweeps
      // the XPBuffer capacity of the explicit-flush domain, so CCL_BACKEND
      // must not rebind it.
      const BackendSpec spec{"adr",
                             {.xpbuffer_bytes = xpbuffer_kb * 1024,
                              .backend = pmsim::MediaBackend::kAdrOptane}};
      benchmark::RegisterBenchmark(bench_name.c_str(), [=](benchmark::State& state) {
        for (auto _ : state) {
          kvindex::RuntimeOptions runtime_options;
          runtime_options.device = spec.device;
          runtime_options.device.pool_bytes = 2ULL << 30;
          kvindex::Runtime runtime(runtime_options);
          auto index = MakeIndex(name, runtime, {});
          RunConfig config;
          config.threads = 48;
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
