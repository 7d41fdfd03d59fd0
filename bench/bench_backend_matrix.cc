// Backend matrix (DESIGN.md §14): the full index suite under every
// persistence-domain backend in one sweep — ADR/Optane (explicit flushes,
// 256 B XPLines), eADR (flush-free, modeled CPU-cache evictions), and
// page-granular CXL-mem (1 KB / 4 KB media units). One deterministic row per
// backend × index pair; XBI/CLI across rows show how each design's write
// amplification moves with the persistence domain, the paper's §6
// transferability claim in a single artifact (BENCH_backend_matrix.json).
#include <string>

#include "bench/bench_common.h"

namespace cclbt::bench {
namespace {

void RegisterAll() {
  uint64_t scale = BenchScale();
  for (const BackendSpec& spec : MatrixBackends()) {
    for (const std::string& name : AllIndexNames()) {
      std::string bench_name = "backend_matrix/" + spec.name + "/" + name;
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
