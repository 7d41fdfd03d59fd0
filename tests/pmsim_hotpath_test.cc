// Concurrency and accounting tests for the pmsim hot-path structures: the
// flat XPBuffer (conservation of insertions/evictions under real-thread
// contention), the sharded Stats registry (fold-on-unregister, Reset), and
// the per-context pending-set dedup.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/pmsim/device.h"
#include "src/pmsim/stats.h"
#include "src/pmsim/xpbuffer.h"

namespace cclbt::pmsim {
namespace {

// N real threads hammer one XpBuffer with random flushes. Whatever the
// interleaving, every inserted XPLine must end up either evicted (observed
// by exactly one caller via result.evicted) or still resident:
//   insertions == evictions == sum of observed evictions + ... resident
TEST(XpBufferStressTest, EvictionConservationUnderContention) {
  constexpr size_t kEntries = 64;
  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerThread = 200'000;
  constexpr uint64_t kKeySpace = 4096;  // far larger than capacity: evict-heavy
  XpBuffer buffer(kEntries);
  std::atomic<uint64_t> observed_evictions{0};
  std::atomic<uint64_t> observed_rmw{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&buffer, &observed_evictions, &observed_rmw, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      uint64_t local_evictions = 0;
      uint64_t local_rmw = 0;
      for (uint64_t i = 0; i < kOpsPerThread; i++) {
        uint64_t key = rng.Next() % kKeySpace;
        XpBufferResult result =
            buffer.OnLineFlush(key, static_cast<int>(rng.Next() & 3), StreamTag::kOther);
        if (result.evicted) {
          local_evictions++;
          if (result.rmw) {
            local_rmw++;
          }
        }
      }
      observed_evictions.fetch_add(local_evictions);
      observed_rmw.fetch_add(local_rmw);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Each miss inserts exactly one XPLine, each eviction removes exactly one,
  // so at quiesce the counters must balance and every eviction must have
  // been reported to exactly one caller.
  EXPECT_EQ(buffer.resident(), kEntries);
  EXPECT_EQ(buffer.insertions(), buffer.evictions() + buffer.resident());
  EXPECT_EQ(observed_evictions.load(), buffer.evictions());
  EXPECT_GT(observed_evictions.load(), 0u);
  // Single-line flushes over a large keyspace: partial lines dominate, so
  // RMW evictions must occur (sanity that the dirty-mask logic survived the
  // flat rewrite).
  EXPECT_GT(observed_rmw.load(), 0u);
}

// Same conservation when threads also drain concurrently-ish: a drain resets
// residency without counting evictions, so run it after joining workers.
TEST(XpBufferStressTest, DrainAfterStressReportsAllResidentLines) {
  XpBuffer buffer(32);
  Rng rng(7);
  for (int i = 0; i < 10'000; i++) {
    buffer.OnLineFlush(rng.Next() % 512, static_cast<int>(rng.Next() & 3), StreamTag::kLeaf);
  }
  uint64_t evictions_before = buffer.evictions();
  size_t resident_before = buffer.resident();
  size_t drained = 0;
  buffer.Drain([&drained](bool, StreamTag, trace::Component, uint64_t) { drained++; });
  EXPECT_EQ(drained, resident_before);
  EXPECT_EQ(buffer.resident(), 0u);
  // Drain never counts as eviction.
  EXPECT_EQ(buffer.evictions(), evictions_before);
  // After a drain the conservation baseline restarts from the drained state:
  // subsequent inserts balance again.
  for (int i = 0; i < 100; i++) {
    buffer.OnLineFlush(static_cast<uint64_t>(i), 0, StreamTag::kOther);
  }
  EXPECT_EQ(buffer.resident(), 32u);
}

// Shards registered with Stats are included in Snapshot() while live and
// folded into the base when unregistered; totals never change across the
// fold.
TEST(StatsShardTest, SnapshotSeesLiveShardsAndSurvivesFold) {
  Stats stats;
  auto shard = std::make_unique<StatsShard>();
  stats.RegisterShard(shard.get());
  shard->AddUserBytes(100);
  shard->AddLineFlush();
  shard->AddMediaWrite(StreamTag::kLog);
  stats.AddFence();  // base-shard fallback path

  StatsSnapshot live = stats.Snapshot();
  EXPECT_EQ(live.user_bytes, 100u);
  EXPECT_EQ(live.line_flushes, 1u);
  EXPECT_EQ(live.xpbuffer_write_bytes, kCachelineBytes);
  EXPECT_EQ(live.media_write_bytes, kXplineBytes);
  EXPECT_EQ(live.media_writes_by_tag[static_cast<int>(StreamTag::kLog)], 1u);
  EXPECT_EQ(live.fences, 1u);

  stats.UnregisterShard(shard.get());
  StatsSnapshot folded = stats.Snapshot();
  EXPECT_EQ(folded.user_bytes, live.user_bytes);
  EXPECT_EQ(folded.line_flushes, live.line_flushes);
  EXPECT_EQ(folded.media_write_bytes, live.media_write_bytes);
  EXPECT_EQ(folded.fences, live.fences);
  // The unregistered shard was zeroed, so re-registering it must not double
  // count.
  stats.RegisterShard(shard.get());
  StatsSnapshot reregistered = stats.Snapshot();
  EXPECT_EQ(reregistered.user_bytes, folded.user_bytes);
  stats.UnregisterShard(shard.get());
}

TEST(StatsShardTest, ResetZeroesBaseAndLiveShards) {
  Stats stats;
  StatsShard shard;
  stats.RegisterShard(&shard);
  shard.AddUserBytes(42);
  stats.AddUserBytes(8);
  stats.Reset();
  StatsSnapshot after = stats.Snapshot();
  EXPECT_EQ(after.user_bytes, 0u);
  EXPECT_EQ(shard.user_bytes.load(), 0u);
  stats.UnregisterShard(&shard);
}

// Per-device accounting path: a multithreaded flush storm through PmDevice
// must conserve media accounting — every media write recorded in stats
// corresponds to an XPLine eviction or an end-of-run drain of a resident
// line, and DrainBuffers() empties every buffer.
//
// This and the two pending-set tests below count media writes in 256 B
// XPLines, so they pin ADR rather than follow CCL_BACKEND.
TEST(PmDeviceHotpathTest, MultithreadedFlushStormConservesMediaAccounting) {
  DeviceConfig config;
  config.backend = MediaBackend::kAdrOptane;
  config.pool_bytes = 64 << 20;
  config.num_sockets = 1;
  config.dimms_per_socket = 4;
  config.crash_tracking = false;
  PmDevice device(config);
  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&device, t] {
      ThreadContext ctx(device, 0, t);
      Rng rng(static_cast<uint64_t>(t) + 11);
      for (uint64_t i = 0; i < kOpsPerThread; i++) {
        uint64_t offset = (rng.Next() % (1 << 16)) * kXplineBytes;
        device.FlushLine(ctx, device.base() + offset);
        if ((i & 7) == 7) {
          device.Fence(ctx);
        }
      }
      device.Fence(ctx);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  StatsSnapshot before_drain = device.stats().Snapshot();
  device.DrainBuffers();
  StatsSnapshot after_drain = device.stats().Snapshot();
  // Committed lines: every flush was committed by a fence (dedup may have
  // merged same-line flushes within one fence group, so <=).
  EXPECT_LE(after_drain.media_write_bytes / kXplineBytes,
            before_drain.line_flushes);
  // The drain recorded the resident lines (4 DIMMs x 64-entry buffers were
  // saturated by the storm, so it must have added writes).
  EXPECT_GT(after_drain.media_write_bytes, before_drain.media_write_bytes);
  // Tag attribution totals always match the media write count.
  uint64_t tag_total = 0;
  for (uint64_t by_tag : after_drain.media_writes_by_tag) {
    tag_total += by_tag;
  }
  EXPECT_EQ(tag_total, after_drain.media_write_bytes / kXplineBytes);
}

// The pending-set dedup: flushing the same line repeatedly before one fence
// commits it once (one XPBuffer insertion), while distinct lines commit
// individually. Uses a fresh single-context device so XPBuffer insertions
// are directly observable via media accounting after a drain.
TEST(PmDeviceHotpathTest, PendingSetDedupCommitsEachLineOnce) {
  DeviceConfig config;
  config.backend = MediaBackend::kAdrOptane;
  config.pool_bytes = 16 << 20;
  config.num_sockets = 1;
  config.dimms_per_socket = 1;
  config.crash_tracking = false;
  PmDevice device(config);
  ThreadContext ctx(device, 0, 0);
  // 100 flushes of the same line + 3 distinct lines, one fence.
  for (int i = 0; i < 100; i++) {
    device.FlushLine(ctx, device.base());
  }
  for (int i = 1; i <= 3; i++) {
    device.FlushLine(ctx, device.base() + static_cast<size_t>(i) * kXplineBytes);
  }
  device.Fence(ctx);
  StatsSnapshot s = device.stats().Snapshot();
  EXPECT_EQ(s.line_flushes, 103u);
  device.DrainBuffers();
  s = device.stats().Snapshot();
  // 4 distinct XPLines entered the buffer; none evicted (buffer holds 64),
  // so the drain wrote exactly 4 units.
  EXPECT_EQ(s.media_write_bytes, 4 * kXplineBytes);
}

// A fence clears the pending set: the same line flushed in two consecutive
// fence groups commits twice.
TEST(PmDeviceHotpathTest, PendingSetResetsAcrossFences) {
  DeviceConfig config;
  config.backend = MediaBackend::kAdrOptane;
  config.pool_bytes = 16 << 20;
  config.num_sockets = 1;
  config.dimms_per_socket = 1;
  config.crash_tracking = false;
  PmDevice device(config);
  ThreadContext ctx(device, 0, 0);
  for (int round = 0; round < 5; round++) {
    device.FlushLine(ctx, device.base());
    device.Fence(ctx);
  }
  // Same XPLine recommitted each round: write-combining hits, 1 insertion.
  device.DrainBuffers();
  StatsSnapshot s = device.stats().Snapshot();
  EXPECT_EQ(s.line_flushes, 5u);
  EXPECT_EQ(s.fences, 5u);
  EXPECT_EQ(s.media_write_bytes, kXplineBytes);
}

}  // namespace
}  // namespace cclbt::pmsim
