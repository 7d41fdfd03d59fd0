// Extra extension experiment (paper §6, "Applicability to other indexes"):
// CCL-Hash — buffer nodes + write-conservative logging + locality-aware GC
// applied to a persistent hash table. Compares media write amplification and
// modeled insert throughput of the buffered design against direct bucket
// writes (the CCEH-style baseline arm), on the shared driver.
#include <string>

#include "bench/bench_common.h"

namespace cclbt::bench {
namespace {

void RegisterAll() {
  uint64_t scale = BenchScale();
  for (bool buffering : {false, true}) {
    for (bool conservative : {false, true}) {
      if (!buffering && !conservative) {
        continue;  // N_batch = 0 logs every write under naive logging
      }
      std::string bench_name = std::string("extra_hash/") +
                               (buffering ? (conservative ? "ccl-hash" : "ccl-hash-naivelog")
                                          : "unbuffered");
      benchmark::RegisterBenchmark(bench_name.c_str(), [=](benchmark::State& state) {
        for (auto _ : state) {
          RunConfig config;
          config.threads = 48;
          config.warm_keys = scale;
          config.ops = scale;
          config.op = OpType::kInsert;
          IndexConfig index_config;
          if (!buffering) {
            index_config.tree.nbatch = 0;
          }
          index_config.tree.write_conservative_logging = conservative;
          index_config.hash_buckets = scale / 8;
          SetCommonCounters(state, RunIndexWorkload("cclhash", config, index_config));
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
