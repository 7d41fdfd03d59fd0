// Tail latency of the sharded KV service under open-loop load (DESIGN.md
// §15). Closed-loop benches (fig10-12) measure service time only; this
// harness drives a Poisson (and one bursty) arrival process through
// admission control, per-shard bounded queues and group-commit batching, so
// an op's latency includes the queueing delay that XPBuffer-induced media
// stalls inflate near saturation.
//
// Each row offers a fixed rate open-loop on a fresh runtime, and reports
// beside it the configuration's saturation capacity, probed by a
// closed-loop run on another fresh runtime. The rates are about 50% (below
// saturation — tails track service time), 100% (at saturation — queues
// start to build) and 200% (beyond — admission control sheds the excess and
// tails of *admitted* requests stay bounded by the queue depth) of each
// shard count's capacity at CCL_BENCH_SCALE=60000 when they were set
// (6.2 Mop/s on 2 shards, 8.5 on 4). They are absolute, not a share of the
// probed capacity, so a change that speeds the index up does not raise its
// own offered load. Rows sweep 2 and 4 shards, pinned round-robin across the
// device's 2 sockets by Runtime::SocketForWorker.
//
// Every reported counter is virtual-time/count data: rows are bit-identical
// run-to-run and participate in the run_benches.sh determinism diff and the
// bench_gate baseline.
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "src/metrics/metrics.h"
#include "src/service/service.h"

namespace cclbt::bench {
namespace {

using service::ArrivalProcess;
using service::OpenLoopConfig;
using service::ServiceConfig;
using service::ServiceResult;
using service::ShardedKvService;

ServiceConfig MakeServiceConfig(int shards) {
  ServiceConfig config;
  config.shards = shards;
  config.queue_capacity = 64;
  config.batch_ops = 8;  // 4x the tree's default nbatch: full buffer-node slots
  config.label = "service_tail_s" + std::to_string(shards);
  return config;
}

OpenLoopConfig MakeWorkload(uint64_t scale, double offered_mops) {
  OpenLoopConfig w;
  w.ops = scale;
  w.warm_keys = scale / 2;
  w.offered_mops = offered_mops;
  w.mix = &kYcsbInsertIntensive;
  w.seed = 42;
  return w;
}

std::unique_ptr<kvindex::Runtime> MakeRuntime() {
  kvindex::RuntimeOptions options;  // default device: 2 sockets, 4 DIMMs each
  return std::make_unique<kvindex::Runtime>(options);
}

// Saturation throughput of this shard count: closed-loop (arrivals always
// available), on a runtime discarded afterwards so the probe leaves no state
// behind. Deterministic, so re-probing per row keeps rows independent under
// benchmark filters.
double ProbeCapacityMops(int shards, uint64_t scale) {
  auto runtime = MakeRuntime();
  ShardedKvService probe(*runtime, MakeServiceConfig(shards));
  OpenLoopConfig w = MakeWorkload(scale, /*offered_mops=*/0);
  probe.Warm(w);
  return probe.Run(w).achieved_mops;
}

void SetServiceCounters(benchmark::State& state, const ServiceResult& result) {
  state.counters["Mops"] = result.achieved_mops;
  state.counters["offered_Mops"] = result.offered_mops;
  state.counters["shed_rate"] = result.shed_rate;
  state.counters["virt_ms"] = result.elapsed_virtual_ms;
  state.counters["XBI"] = result.xbi_amplification;
  state.counters["CLI"] = result.cli_amplification;
  state.counters["epochs"] = static_cast<double>(result.epochs.size());
  // Queueing + service latency (virtual) per op kind, arrival -> ack.
  const metrics::MetricsSnapshot& m = result.metrics_snapshot;
  struct KindRow {
    metrics::OpKind kind;
    const char* name;
  };
  for (const KindRow& k : {KindRow{metrics::OpKind::kUpsert, "upsert"},
                           KindRow{metrics::OpKind::kLookup, "lookup"}}) {
    const metrics::Histogram& h = m.virt(k.kind);
    if (h.Count() == 0) {
      continue;
    }
    std::string p = k.name;
    state.counters[p + "_p50_us"] = static_cast<double>(h.Percentile(50)) / 1e3;
    state.counters[p + "_p99_us"] = static_cast<double>(h.Percentile(99)) / 1e3;
    state.counters[p + "_p999_us"] = static_cast<double>(h.Percentile(99.9)) / 1e3;
  }
  // Socket-pinning check: distinct sockets the shards landed on (2 on the
  // default 2-socket device for every shard count >= 2).
  uint64_t socket_mask = 0;
  uint64_t max_depth = 0;
  for (const service::ShardStats& s : result.shards) {
    socket_mask |= 1ULL << s.socket;
    max_depth = std::max(max_depth, s.max_queue_depth);
  }
  state.counters["sockets"] = static_cast<double>(__builtin_popcountll(socket_mask));
  state.counters["max_qdepth"] = static_cast<double>(max_depth);
}

void RunRow(benchmark::State& state, int shards, double offered_mops, ArrivalProcess process,
            uint64_t scale) {
  for (auto _ : state) {
    double capacity = ProbeCapacityMops(shards, scale);
    auto runtime = MakeRuntime();
    ShardedKvService svc(*runtime, MakeServiceConfig(shards));
    OpenLoopConfig w = MakeWorkload(scale, offered_mops);
    w.process = process;
    svc.Warm(w);
    ServiceResult result = svc.Run(w);
    state.counters["capacity_Mops"] = capacity;
    SetServiceCounters(state, result);
  }
}

// Offered Mop/s of each shard count's rows, and the row names' rateN.
struct ShardRates {
  int shards;
  int mops[3];
};
constexpr ShardRates kRates[] = {{2, {3, 6, 12}}, {4, {4, 8, 16}}};

void RegisterAll() {
  uint64_t scale = BenchScale();
  for (const ShardRates& rates : kRates) {
    for (int mops : rates.mops) {
      const int shards = rates.shards;
      std::string name = "service_tail/shards" + std::to_string(shards) + "/poisson/rate" +
                         std::to_string(mops);
      benchmark::RegisterBenchmark(name.c_str(), [=](benchmark::State& state) {
        RunRow(state, shards, mops, ArrivalProcess::kPoisson, scale);
      })->Iterations(1)->Unit(benchmark::kMillisecond);
    }
  }
  // One bursty row: same mean rate as shards2/poisson/rate6 but arriving in
  // 4x on/off bursts — the flash-crowd case the admission watermark absorbs.
  benchmark::RegisterBenchmark(
      "service_tail/shards2/burst/rate6",
      [=](benchmark::State& state) {
        RunRow(state, 2, 6, ArrivalProcess::kBurst, scale);
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace
}  // namespace cclbt::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  cclbt::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
