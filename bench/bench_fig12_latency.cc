// Figure 12: latency distribution (min / p50 / p90 / p99 / p99.9) of insert
// and search at 48 threads. DPTree's buffer gives low median insert latency
// but its merge produces extreme tails; CCL-BTree's low XBI keeps the p99.9
// down because writers rarely stall on a saturated WPQ.
//
// pmtrace extension: per-op latency is additionally broken down by trace
// component (wal / leaf / inner / buffernode / gc / ...), reported as
// <comp>_p50_us / _p99_us / _p999_us counters. The breakdown shows *where*
// the tail comes from (e.g. buffer-node flushes vs WAL appends).
//
// Latency collection goes through the metrics registry (src/metrics): the
// driver records every op into per-op-kind virtual/wall histograms and
// RunResult::latency is their merged view — the same single histogram
// implementation that backs .pmmetrics epoch percentiles.
#include <string>

#include "bench/bench_common.h"

namespace cclbt::bench {
namespace {

void RegisterAll() {
  uint64_t scale = BenchScale();
  for (const char* op_name : {"insert", "search"}) {
    OpType op = std::string(op_name) == "insert" ? OpType::kInsert : OpType::kRead;
    for (const std::string& name : TreeIndexNames()) {
      std::string bench_name = std::string("fig12/") + op_name + "/" + name;
      benchmark::RegisterBenchmark(bench_name.c_str(), [=](benchmark::State& state) {
        for (auto _ : state) {
          RunConfig config;
          config.threads = 48;
          config.warm_keys = scale;
          config.ops = scale;
          config.op = op;
          config.metrics = true;
          config.collect_component_latency = true;
          RunResult result = RunIndexWorkload(name, config);
          SetCommonCounters(state, result);
          SetLatencyCounters(state, result);
          SetComponentLatencyCounters(state, result);
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
