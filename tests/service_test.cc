// Tests for the sharded KV service front-end (src/service, DESIGN.md §15):
// socket placement of shards, determinism of the open-loop run, admission
// control under overload, and crash consistency across shard queues (no
// acked-then-lost write). Also covers this PR's satellite fixes at the
// layers the service depends on: Runtime::SocketForWorker placement
// defaults and the Reopen value-store leak accounting.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/ccl_btree.h"
#include "src/kvindex/runtime.h"
#include "src/metrics/pmmetrics.h"
#include "src/pmsim/crash_injector.h"
#include "src/service/service.h"

namespace cclbt::service {
namespace {

kvindex::RuntimeOptions SmallRuntime() {
  kvindex::RuntimeOptions options;
  options.device.pool_bytes = 256 << 20;
  options.device.num_sockets = 2;
  options.device.dimms_per_socket = 2;
  return options;
}

ServiceConfig SmallService(int shards) {
  ServiceConfig config;
  config.shards = shards;
  config.queue_capacity = 32;
  config.batch_ops = 4;
  return config;
}

OpenLoopConfig SmallWorkload(double offered_mops) {
  OpenLoopConfig w;
  w.ops = 6'000;
  w.warm_keys = 3'000;
  w.offered_mops = offered_mops;
  w.mix = &kYcsbInsertIntensive;
  w.seed = 99;
  return w;
}

// --- satellite: SocketForWorker placement defaults --------------------------

TEST(Runtime, SocketForWorkerRoundRobinsWhenCoreCountUnknown) {
  kvindex::Runtime rt(SmallRuntime());
  // 2 sockets, no cores_per_socket, no caller default: a
  // 4-worker run must use both sockets, not pile onto socket 0 behind a
  // fill-first threshold it never crosses.
  EXPECT_EQ(rt.SocketForWorker(0), 0);
  EXPECT_EQ(rt.SocketForWorker(1), 1);
  EXPECT_EQ(rt.SocketForWorker(2), 0);
  EXPECT_EQ(rt.SocketForWorker(3), 1);
}

TEST(Runtime, SocketForWorkerFillsFirstWithExplicitCoreCount) {
  kvindex::Runtime rt(SmallRuntime());
  // The caller's default keeps the paper's fill-first pinning.
  EXPECT_EQ(rt.SocketForWorker(0, 48), 0);
  EXPECT_EQ(rt.SocketForWorker(47, 48), 0);
  EXPECT_EQ(rt.SocketForWorker(48, 48), 1);
  EXPECT_EQ(rt.SocketForWorker(95, 48), 1);
}

TEST(Runtime, SocketForWorkerUsesDeviceCoresPerSocket) {
  kvindex::RuntimeOptions options = SmallRuntime();
  options.device.cores_per_socket = 2;
  kvindex::Runtime rt(options);
  EXPECT_EQ(rt.SocketForWorker(0), 0);
  EXPECT_EQ(rt.SocketForWorker(1), 0);
  EXPECT_EQ(rt.SocketForWorker(2), 1);
  EXPECT_EQ(rt.SocketForWorker(3), 1);
  // The device's core count wins over the caller's default.
  EXPECT_EQ(rt.SocketForWorker(2, 48), 1);
}

// --- shard placement ---------------------------------------------------------

TEST(Service, ShardsPinRoundRobinAcrossSockets) {
  kvindex::Runtime rt(SmallRuntime());
  ShardedKvService svc(rt, SmallService(4));
  for (int s = 0; s < 4; s++) {
    EXPECT_EQ(svc.shard_socket(s), s % 2) << "shard " << s;
  }
}

TEST(Service, HashAndRangePartitionsCoverAllShards) {
  for (Partition partition : {Partition::kHash, Partition::kRange}) {
    kvindex::Runtime rt(SmallRuntime());
    ServiceConfig config = SmallService(4);
    config.partition = partition;
    ShardedKvService svc(rt, config);
    OpenLoopConfig w = SmallWorkload(2.0);
    svc.Warm(w);
    ServiceResult result = svc.Run(w);
    ASSERT_EQ(result.shards.size(), 4u);
    for (const ShardStats& sh : result.shards) {
      EXPECT_GT(sh.admitted, 0u) << "partition " << static_cast<int>(partition);
    }
  }
}

// --- determinism -------------------------------------------------------------

ServiceResult RunFresh(double offered_mops) {
  kvindex::Runtime rt(SmallRuntime());
  ShardedKvService svc(rt, SmallService(2));
  OpenLoopConfig w = SmallWorkload(offered_mops);
  svc.Warm(w);
  return svc.Run(w);
}

TEST(Service, EpochSeriesAndShedCountsAreBitIdenticalAcrossRuns) {
  ServiceResult a = RunFresh(4.0);
  ServiceResult b = RunFresh(4.0);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.completed, b.completed);
  ASSERT_FALSE(a.epochs.empty());
  // The serialized epoch series is the CI determinism payload: every field
  // (windowed stats, percentiles, gauges) must match byte for byte.
  EXPECT_EQ(metrics::SerializeEpochSeries(a.epochs), metrics::SerializeEpochSeries(b.epochs));
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    EXPECT_EQ(a.metrics_snapshot.op_virtual[k].Count(), b.metrics_snapshot.op_virtual[k].Count());
    EXPECT_EQ(a.metrics_snapshot.op_virtual[k].Percentile(99),
              b.metrics_snapshot.op_virtual[k].Percentile(99));
  }
}

// --- admission control -------------------------------------------------------

TEST(Service, OverloadShedsInsteadOfGrowingQueues) {
  // Offered load far beyond anything the simulated device can serve.
  ServiceResult result = RunFresh(1000.0);
  EXPECT_GT(result.shed, 0u);
  EXPECT_GT(result.shed_rate, 0.5);
  EXPECT_EQ(result.completed, result.admitted);  // every admitted request acked
  for (const ShardStats& sh : result.shards) {
    EXPECT_LE(sh.max_queue_depth, 32u);  // bounded by queue_capacity
  }
  // The per-shard counts sum to the totals, and so do the last epoch's
  // cumulative sN_shed / sN_admitted gauges pulled from them.
  ASSERT_FALSE(result.epochs.empty());
  const metrics::EpochRecord& last = result.epochs.back();
  uint64_t shard_sheds = 0;
  uint64_t shard_admits = 0;
  uint64_t gauge_sheds = 0;
  uint64_t gauge_admits = 0;
  for (size_t s = 0; s < result.shards.size(); s++) {
    shard_sheds += result.shards[s].shed;
    shard_admits += result.shards[s].admitted;
    gauge_sheds += last.Gauge("s" + std::to_string(s) + "_shed");
    gauge_admits += last.Gauge("s" + std::to_string(s) + "_admitted");
  }
  EXPECT_EQ(shard_sheds, result.shed);
  EXPECT_EQ(shard_admits, result.admitted);
  EXPECT_EQ(gauge_sheds, result.shed);
  EXPECT_EQ(gauge_admits, result.admitted);
  EXPECT_EQ(result.admitted + result.shed, result.offered);
}

TEST(Service, LightLoadShedsLittleAndKeepsLatencyNearService) {
  ServiceResult light = RunFresh(1.0);
  ServiceResult heavy = RunFresh(1000.0);
  EXPECT_LT(light.shed_rate, 0.01);
  // Queueing delay dominates under overload: admitted-request p99 latency
  // (arrival -> ack) must be clearly above the light-load p99.
  const metrics::Histogram& hl =
      light.metrics_snapshot.virt(metrics::OpKind::kUpsert);
  const metrics::Histogram& hh =
      heavy.metrics_snapshot.virt(metrics::OpKind::kUpsert);
  ASSERT_GT(hl.Count(), 0u);
  ASSERT_GT(hh.Count(), 0u);
  EXPECT_GT(hh.Percentile(99), hl.Percentile(99));
}

// --- crash consistency across shard queues -----------------------------------

// Looks `key` up in every recovered shard tree; at most one owns it.
bool LookupAnyShard(std::vector<std::unique_ptr<core::CclBTree>>& trees, uint64_t key,
                    uint64_t* value_out) {
  for (auto& tree : trees) {
    if (tree->Lookup(key, value_out)) {
      return true;
    }
  }
  return false;
}

TEST(Service, CrashDuringOpenLoopRunLosesNoAckedWrite) {
  constexpr int kShards = 2;
  ServiceConfig config = SmallService(kShards);
  config.track_acked = true;
  OpenLoopConfig w = SmallWorkload(4.0);
  w.mix = &kYcsbInsertOnly;  // every key written exactly once: acked => must survive
  w.ops = 4'000;
  w.warm_keys = 1'000;

  // Probe pass: count the fences the measured phase executes (the arrival
  // stream and service schedule are deterministic, so per-target replays see
  // the identical fence sequence).
  uint64_t total_fences = 0;
  {
    kvindex::Runtime rt(SmallRuntime());
    auto svc = std::make_unique<ShardedKvService>(rt, config);
    svc->Warm(w);
    pmsim::CrashInjector injector;
    rt.device().SetCrashInjector(&injector);
    injector.Arm(/*fence_target=*/0);  // count-only
    svc->Run(w);
    rt.device().SetCrashInjector(nullptr);
    total_fences = injector.fences_observed();
  }
  ASSERT_GT(total_fences, 100u);

  for (bool torn : {false, true}) {
    for (uint64_t target :
         {total_fences / 4, total_fences / 2, (3 * total_fences) / 4}) {
      SCOPED_TRACE("fence_target=" + std::to_string(target) + " torn=" + std::to_string(torn));
      kvindex::Runtime rt(SmallRuntime());
      auto svc = std::make_unique<ShardedKvService>(rt, config);
      svc->Warm(w);
      pmsim::CrashInjector injector;
      rt.device().SetCrashInjector(&injector);
      injector.Arm(target, torn ? pmsim::CrashInjector::Mode::kTorn
                                : pmsim::CrashInjector::Mode::kClean,
                   /*torn_seed=*/target);
      bool fired = false;
      try {
        svc->Run(w);
      } catch (const pmsim::CrashPointReached&) {
        fired = true;
      }
      rt.device().SetCrashInjector(nullptr);
      ASSERT_TRUE(fired);
      // Settle the media while the shard contexts are still alive (the torn
      // lottery draws from their pending unfenced lines), then tear the
      // service down and restart.
      if (torn) {
        rt.device().CrashTorn(target);
      } else {
        rt.device().Crash();
      }
      std::map<uint64_t, uint64_t> acked = svc->acked();
      svc.reset();
      std::string error;
      ASSERT_TRUE(rt.Reopen(&error)) << error;

      std::vector<std::unique_ptr<core::CclBTree>> trees;
      for (int s = 0; s < kShards; s++) {
        core::TreeOptions options = config.index_config.tree;
        options.root_slot = s;  // shard s persisted its root in app-root slot s
        auto tree =
            std::make_unique<core::CclBTree>(rt, options, kvindex::Lifecycle::kAttach);
        ASSERT_TRUE(tree->Recover(rt, /*recovery_threads=*/1)) << "shard " << s;
        trees.push_back(std::move(tree));
      }
      // Post-recovery reads charge PM latency: they need a live context
      // (recovery itself opens its own).
      pmsim::ThreadContext verify_ctx(rt.device(), /*socket=*/0, /*worker_id=*/0);
      for (int s = 0; s < kShards; s++) {
        EXPECT_TRUE(trees[static_cast<size_t>(s)]->CheckInvariants()) << "shard " << s;
      }

      // Warm keys were fully upserted before the injector armed: durable.
      for (uint64_t i = 0; i < w.warm_keys; i += 17) {
        uint64_t value = 0;
        ASSERT_TRUE(LookupAnyShard(trees, ServiceWarmKey(i), &value)) << "warm key " << i;
        EXPECT_EQ(value, ServiceValue(i));
      }
      // Group-commit contract: a write acked before the crash must never be
      // lost, whichever shard queue it crossed. (Unacked writes may or may
      // not survive — that is the crash matrix's lost-update distinction.)
      EXPECT_FALSE(acked.empty());
      for (const auto& [key, value] : acked) {
        uint64_t got = 0;
        ASSERT_TRUE(LookupAnyShard(trees, key, &got)) << "acked key lost";
        EXPECT_EQ(got, value);
      }
      // Satellite: the value-store gauges ride along on every recovered
      // tree's gauge sample (pmctl top/series visibility of the leak
      // counter).
      std::vector<std::pair<std::string, uint64_t>> gauges;
      trees[0]->SampleGauges(&gauges);
      bool has_leak_gauge = false;
      for (const auto& [name, unused] : gauges) {
        has_leak_gauge |= name == "valuestore_leaked_bytes";
      }
      EXPECT_TRUE(has_leak_gauge);
    }
  }
}

// --- satellite: Reopen value-store leak accounting ---------------------------

TEST(ReopenLeak, ValueStoreRestartLeakIsCountedAndBounded) {
  kvindex::Runtime rt(SmallRuntime());
  constexpr uint64_t kRegionBytes = 1 << 20;  // ValueStore's per-socket region
  const int sockets = rt.options().device.num_sockets;
  std::vector<std::byte> payload(256, std::byte{0x7C});
  uint64_t prev_leaked = 0;
  for (int restart = 1; restart <= 4; restart++) {
    {
      // Reserve a region on each socket so the pre-crash store always has an
      // unused remainder to orphan.
      pmsim::ThreadContext ctx(rt.device(), 0);
      for (int s = 0; s < sockets; s++) {
        rt.values().Append(payload, s);
      }
    }
    EXPECT_GT(rt.values().unused_reserved_bytes(), 0u);
    rt.device().Crash();
    std::string error;
    ASSERT_TRUE(rt.Reopen(&error)) << error;
    uint64_t leaked = rt.values().leaked_bytes();
    // Monotone growth across crash-recover cycles (the silent pre-fix
    // behavior reset this to zero every restart)...
    EXPECT_GT(leaked, prev_leaked) << "restart " << restart;
    // ...bounded by one region per socket per restart.
    EXPECT_LE(leaked, static_cast<uint64_t>(restart) *
                          static_cast<uint64_t>(sockets) * kRegionBytes);
    prev_leaked = leaked;
  }
}

}  // namespace
}  // namespace cclbt::service
