// Extra extension experiment (paper §6, "Applicability to other PM
// devices"): future CXL-based devices (Samsung Memory-Semantic SSD, KIOXIA
// XL-FLASH) have internal buffers whose media unit is a flash page (4 KB)
// rather than a 256 B XPLine — an even larger cacheline/media mismatch. The
// paper argues CCL-BTree's techniques transfer; this bench tests that claim
// by sweeping the simulated media unit from 256 B to 4 KB and comparing the
// per-unit write amplification of CCL-BTree vs an unbuffered leaf tree.
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace cclbt::bench {
namespace {

void RegisterAll() {
  uint64_t scale = BenchScale();
  for (size_t unit : {256, 1024, 4096}) {
    const std::vector<std::string> kIndexes = {"fptree", "cclbtree"};
    for (const std::string& name : kIndexes) {
      std::string bench_name = "extra_cxl/" + name + "/unit:" + std::to_string(unit);
      // The CXL-mem backend with its persistent write-combining buffer
      // (DESIGN.md §14): page-granular media units, buffer capacity held at
      // 64 media units so the sweep isolates the unit-size effect.
      const BackendSpec spec{"cxl" + std::to_string(unit), CxlDevice(unit)};
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
