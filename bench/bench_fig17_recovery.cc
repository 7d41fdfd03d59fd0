// Figure 17: failure-recovery time of CCL-BTree vs dataset size, with 24 and
// 48 recovery threads; the paper reports time growing linearly with data and
// shrinking with threads. Each row reports the modeled ms of every phase
// next to recovery_ms (CclIndex::Replay, DESIGN.md §10): rebuild (DRAM layers
// from the leaf list), scan (the log chunks, in parallel), apply (each key's
// newest entry staged in its buffer node, in parallel), copy (one
// locality-aware GC round makes the staged KVs durable) and reclaim (the
// timestamp-floor persist and the chunk frees). Replay runs on virtual
// workers, so every field but wall_ms is bit-identical run to run.
#include <algorithm>
#include <chrono>
#include <string>

#include "bench/bench_common.h"
#include "src/core/ccl_btree.h"

namespace cclbt::bench {
namespace {

void RegisterAll() {
  uint64_t scale = BenchScale();
  for (uint64_t mult : {1, 2, 5}) {
    for (int threads : {24, 48}) {
      uint64_t keys = scale * mult;
      std::string bench_name =
          "fig17/keys:" + std::to_string(keys) + "/threads:" + std::to_string(threads);
      benchmark::RegisterBenchmark(bench_name.c_str(), [=](benchmark::State& state) {
        for (auto _ : state) {
          kvindex::RuntimeOptions runtime_options;
          runtime_options.device.pool_bytes = 8ULL << 30;
          kvindex::Runtime runtime(runtime_options);
          core::TreeOptions tree_options;
          tree_options.gc_quantum_ops = 0;
          {
            core::CclBTree tree(runtime, tree_options);
            RunConfig config;
            config.threads = 48;
            config.warm_keys = keys;
            config.ops = 0;
            RunResult ignored = RunWorkload(runtime, tree, config);
            (void)ignored;
          }
          runtime.device().Crash();
          std::string reopen_error;
          if (!runtime.Reopen(&reopen_error)) {
            state.SkipWithError(("reopen failed: " + reopen_error).c_str());
            return;
          }
          runtime.device().ResetCosts();
          auto wall0 = std::chrono::steady_clock::now();
          IndexConfig index_config;
          index_config.tree = tree_options;
          auto tree = RecoverIndex("cclbtree", runtime, index_config, threads);
          auto wall1 = std::chrono::steady_clock::now();
          if (tree == nullptr) {
            state.SkipWithError("recovery failed");
            return;
          }
          // Modeled recovery time: the boot context's clock across its
          // phases, floored by the outstanding media work.
          state.counters["recovery_ms"] =
              static_cast<double>(std::max(tree->last_recovery_modeled_ns(),
                                           runtime.device().MaxDimmBusyNs())) /
              1e6;
          const core::RecoveryPhases& phases =
              dynamic_cast<const core::CclBTree&>(*tree).last_recovery_phases();
          state.counters["rebuild_ms"] = static_cast<double>(phases.rebuild_ns) / 1e6;
          state.counters["scan_ms"] = static_cast<double>(phases.scan_ns) / 1e6;
          state.counters["apply_ms"] = static_cast<double>(phases.apply_ns) / 1e6;
          state.counters["copy_ms"] = static_cast<double>(phases.copy_ns) / 1e6;
          state.counters["reclaim_ms"] = static_cast<double>(phases.reclaim_ns) / 1e6;
          state.counters["wall_ms"] =
              std::chrono::duration<double, std::milli>(wall1 - wall0).count();
          state.counters["keys"] = static_cast<double>(keys);
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
