// Property tests for the virtual-time performance model itself: bandwidth
// saturation, queueing fairness, NUMA service penalties and the Figure-2
// linearity that the whole reproduction argument rests on.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/pmsim/device.h"

namespace cclbt::pmsim {
namespace {

// The queueing properties below are those of the ADR Optane write path
// (256 B XPLines, RMW service, WPQ backpressure on every fence), so the
// configs pin that backend instead of following CCL_BACKEND.
DeviceConfig OneDimmConfig() {
  DeviceConfig config;
  config.backend = MediaBackend::kAdrOptane;
  config.pool_bytes = 256 << 20;
  config.num_sockets = 1;
  config.dimms_per_socket = 1;
  return config;
}

// Runs `workers` interleaved logical writers doing `per_worker` random
// single-line flushes each; returns modeled elapsed ns.
uint64_t RunRandomWriters(PmDevice& device, int workers, uint64_t per_worker) {
  std::vector<std::unique_ptr<ThreadContext>> ctxs;
  std::vector<Rng> rngs;
  for (int w = 0; w < workers; w++) {
    ctxs.push_back(std::make_unique<ThreadContext>(device, 0, w));
    rngs.emplace_back(static_cast<uint64_t>(w) + 5);
  }
  ThreadContext::SetCurrent(nullptr);
  uint64_t xplines = device.size() / kXplineBytes - 64;
  for (uint64_t i = 0; i < per_worker; i++) {
    for (int w = 0; w < workers; w++) {
      ThreadContext& ctx = *ctxs[static_cast<size_t>(w)];
      ThreadContext::SetCurrent(&ctx);
      uint64_t offset = (rngs[static_cast<size_t>(w)].NextBounded(xplines) + 16) * kXplineBytes;
      device.FlushLine(ctx, device.base() + offset);
      device.Fence(ctx);
    }
  }
  ThreadContext::SetCurrent(nullptr);
  uint64_t elapsed = device.MaxDimmBusyNs();
  for (auto& ctx : ctxs) {
    elapsed = std::max(elapsed, ctx->now_ns());
  }
  return elapsed;
}

TEST(QueueingModel, RandomWritesSaturateAtMediaBandwidth) {
  // With many writers, elapsed time must approach total media service time
  // (each random flush = one eviction = write + RMW service).
  PmDevice device(OneDimmConfig());
  const int kWorkers = 16;
  const uint64_t kPerWorker = 2000;
  uint64_t elapsed = RunRandomWriters(device, kWorkers, kPerWorker);
  const auto& cost = device.config().cost;
  uint64_t total_service =
      kWorkers * kPerWorker * (cost.xpline_write_service_ns + cost.xpline_rmw_extra_ns);
  EXPECT_GT(elapsed, total_service * 80 / 100);
  EXPECT_LT(elapsed, total_service * 130 / 100);
}

TEST(QueueingModel, MoreDimmsMeanMoreBandwidth) {
  DeviceConfig one = OneDimmConfig();
  DeviceConfig four = OneDimmConfig();
  four.dimms_per_socket = 4;
  PmDevice device_one(one);
  PmDevice device_four(four);
  uint64_t t1 = RunRandomWriters(device_one, 16, 1000);
  uint64_t t4 = RunRandomWriters(device_four, 16, 1000);
  // 4 DIMMs should be markedly faster (not necessarily 4x: interleave
  // imbalance and queueing remainders).
  EXPECT_LT(t4 * 2, t1);
}

TEST(QueueingModel, SingleWriterIsLatencyBoundNotBandwidthBound) {
  PmDevice device(OneDimmConfig());
  uint64_t elapsed = RunRandomWriters(device, 1, 2000);
  const auto& cost = device.config().cost;
  uint64_t cpu_only = 2000 * (cost.cacheline_flush_ns + cost.fence_ns);
  // A single writer's own clock stays CPU-bound (the WPQ absorbs its rate),
  // but the elapsed metric still covers the enqueued media service
  // (write + RMW per random eviction) with a small slack.
  uint64_t media = 2000 * (cost.xpline_write_service_ns + cost.xpline_rmw_extra_ns);
  EXPECT_LT(elapsed, std::max(cpu_only, media) + cost.wpq_slack_ns + media / 10);
  EXPECT_GE(elapsed, cpu_only);
}

TEST(QueueingModel, ReadsQueueBehindWrites) {
  // A read issued while the DIMM has a large write backlog must observe
  // queueing delay, not just base latency.
  PmDevice device(OneDimmConfig());
  ThreadContext ctx(device, 0, 0);
  Rng rng(9);
  for (int i = 0; i < 200; i++) {
    uint64_t offset = (rng.NextBounded(1 << 16) + 16) * kXplineBytes;
    device.FlushLine(ctx, device.base() + offset);
  }
  device.Fence(ctx);  // enqueue ~200 evictions of media work
  uint64_t before = ctx.now_ns();
  device.ReadPm(ctx, device.base() + (1ULL << 24), 64);
  uint64_t read_cost = ctx.now_ns() - before;
  EXPECT_GT(read_cost, device.config().cost.pm_read_ns);
}

TEST(QueueingModel, RemoteWritesCostMoreServiceTime) {
  DeviceConfig config;
  config.backend = MediaBackend::kAdrOptane;
  config.pool_bytes = 256 << 20;
  config.num_sockets = 2;
  config.dimms_per_socket = 1;
  auto run = [&](int socket) {
    PmDevice device(config);
    ThreadContext ctx(device, socket, 0);
    Rng rng(11);
    // All flushes to socket 0 addresses.
    for (int i = 0; i < 3000; i++) {
      uint64_t offset = (rng.NextBounded(1 << 16) + 16) * kXplineBytes;
      device.FlushLine(ctx, device.base() + offset);
      device.Fence(ctx);
    }
    return std::max(device.MaxDimmBusyNs(), ctx.now_ns());
  };
  uint64_t local = run(0);
  uint64_t remote = run(1);
  EXPECT_GT(remote, local * 3 / 2);  // remote_penalty_pct = 220
}

TEST(QueueingModel, ElapsedLinearInXplineCount) {
  // The Figure-2(b) property as an assertion: elapsed time grows ~linearly
  // with distinct XPLines per write under saturation.
  auto run = [](int xplines_per_write) {
    PmDevice device(OneDimmConfig());
    std::vector<std::unique_ptr<ThreadContext>> ctxs;
    std::vector<Rng> rngs;
    const int kWorkers = 12;
    for (int w = 0; w < kWorkers; w++) {
      ctxs.push_back(std::make_unique<ThreadContext>(device, 0, w));
      rngs.emplace_back(static_cast<uint64_t>(w) + 21);
    }
    ThreadContext::SetCurrent(nullptr);
    for (int i = 0; i < 1500; i++) {
      for (int w = 0; w < kWorkers; w++) {
        ThreadContext& ctx = *ctxs[static_cast<size_t>(w)];
        ThreadContext::SetCurrent(&ctx);
        for (int x = 0; x < xplines_per_write; x++) {
          uint64_t offset =
              (rngs[static_cast<size_t>(w)].NextBounded(1 << 18) + 16) * kXplineBytes;
          device.FlushLine(ctx, device.base() + offset);
        }
        device.Fence(ctx);
      }
    }
    ThreadContext::SetCurrent(nullptr);
    uint64_t elapsed = device.MaxDimmBusyNs();
    for (auto& ctx : ctxs) {
      elapsed = std::max(elapsed, ctx->now_ns());
    }
    return elapsed;
  };
  uint64_t t1 = run(1);
  uint64_t t2 = run(2);
  uint64_t t4 = run(4);
  EXPECT_NEAR(static_cast<double>(t2) / static_cast<double>(t1), 2.0, 0.35);
  EXPECT_NEAR(static_cast<double>(t4) / static_cast<double>(t1), 4.0, 0.7);
}

TEST(QueueingModel, InterleaveSpreadsLoadAcrossDimms) {
  DeviceConfig config = OneDimmConfig();
  config.backend = MediaBackend::kAuto;  // address mapping holds on every backend
  config.dimms_per_socket = 4;
  PmDevice device(config);
  ThreadContext ctx(device, 0, 0);
  // Sequential 4 KB-stride writes must rotate across all four DIMMs.
  std::vector<int> seen(4, 0);
  for (int i = 0; i < 64; i++) {
    seen[static_cast<size_t>(device.DimmOf(static_cast<uintptr_t>(i) * 4096))]++;
  }
  for (int dimm = 0; dimm < 4; dimm++) {
    EXPECT_EQ(seen[static_cast<size_t>(dimm)], 16);
  }
}

}  // namespace
}  // namespace cclbt::pmsim
