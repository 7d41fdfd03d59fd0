// Figure 19: insert throughput at 96 threads on four realistic key
// distributions standing in for the SOSD datasets (amzn / osm / wiki /
// facebook; see src/common/keyspace.h for the distribution rationale).
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/keyspace.h"

namespace cclbt::bench {
namespace {

void RegisterAll() {
  uint64_t scale = BenchScale();
  static std::vector<std::vector<uint64_t>> datasets;  // keep alive across runs
  datasets.reserve(4);  // no reallocation: registered lambdas hold pointers
  for (SosdDataset which : {SosdDataset::kAmzn, SosdDataset::kOsm, SosdDataset::kWiki,
                            SosdDataset::kFacebook}) {
    datasets.push_back(BuildSosdLikeDataset(which, scale * 2));
    const std::vector<uint64_t>* keys = &datasets.back();
    for (const std::string& name : TreeIndexNames()) {
      std::string bench_name = std::string("fig19/") + SosdDatasetName(which) + "/" + name;
      benchmark::RegisterBenchmark(bench_name.c_str(), [=](benchmark::State& state) {
        for (auto _ : state) {
          RunConfig config;
          config.threads = 96;
          config.warm_keys = scale;
          config.ops = scale;
          config.op = OpType::kInsert;
          config.preset_keys = keys;
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
