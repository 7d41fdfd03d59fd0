// Figure 13: contribution of each CCL-BTree technique.
//   Base   — N_batch = 0: every write is a trigger write, a direct leaf
//            write that write-conservative logging never logs
//   +BNode — leaf-node centric buffering with naive (log-everything) WAL
//   +WLog  — buffering with write-conservative logging (full design)
// Reports per-op throughput for all five operations (13a) and the
// XBI-amplification split into leaf vs WAL media traffic (13b).
#include <string>

#include "bench/bench_common.h"

namespace cclbt::bench {
namespace {

struct Variant {
  const char* name;
  int nbatch;
  bool conservative;
};

void RegisterAll() {
  uint64_t scale = BenchScale();
  constexpr Variant kVariants[] = {{"Base", 0, true}, {"+BNode", 2, false}, {"+WLog", 2, true}};
  constexpr std::pair<const char*, OpType> kOps[] = {{"insert", OpType::kInsert},
                                                     {"update", OpType::kUpdate},
                                                     {"delete", OpType::kDelete},
                                                     {"search", OpType::kRead},
                                                     {"scan", OpType::kScan}};
  for (const auto& variant : kVariants) {
    for (const auto& [op_name, op] : kOps) {
      std::string bench_name = std::string("fig13/") + variant.name + "/" + op_name;
      int nbatch = variant.nbatch;
      bool conservative = variant.conservative;
      OpType op_copy = op;
      benchmark::RegisterBenchmark(bench_name.c_str(), [=](benchmark::State& state) {
        for (auto _ : state) {
          RunConfig config;
          config.threads = 48;
          config.warm_keys = scale;
          config.ops = op_copy == OpType::kScan ? scale / 20 : scale;
          config.op = op_copy;
          IndexConfig index_config;
          index_config.tree.nbatch = nbatch;
          index_config.tree.write_conservative_logging = conservative;
          RunResult result = RunIndexWorkload("cclbtree", config, index_config);
          SetCommonCounters(state, result);
          // 13(b): media bytes written by leaf code vs by the logs. GC's
          // log appends and chunk recycling are charged to `gc` (see
          // WalComponent() in wal.cc), so the log area is wal + gc.
          const pmsim::StatsSnapshot& s = result.stats;
          uint64_t user = s.user_bytes;
          if (user == 0) {
            user = ~0ULL;  // read-only phase: report 0 amplification
          }
          uint64_t log_bytes = s.media_write_bytes_for(trace::Component::kWal) +
                               s.media_write_bytes_for(trace::Component::kGc);
          state.counters["XBI_leaf"] =
              static_cast<double>(s.media_write_bytes_for(trace::Component::kLeaf)) /
              static_cast<double>(user);
          state.counters["XBI_wal"] =
              static_cast<double>(log_bytes) / static_cast<double>(user);
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
