// Unit tests for the persistent-memory simulator: XPBuffer write-combining,
// media accounting (CLI vs XBI), ADR crash semantics, NUMA mapping, and the
// virtual-time cost model, and the virtual-worker stepper.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/pmsim/crash_injector.h"
#include "src/pmsim/device.h"
#include "src/pmsim/virtual_workers.h"

namespace cclbt::pmsim {
namespace {

DeviceConfig SmallConfig() {
  DeviceConfig config;
  config.pool_bytes = 16 << 20;
  config.num_sockets = 2;
  config.dimms_per_socket = 2;
  return config;
}

// For tests of ADR-only behaviour (the flushed-but-unfenced crash window,
// WPQ backpressure, 256 B media units): pinned so CCL_BACKEND cannot rebind
// them. Everything on SmallConfig() runs under every backend.
DeviceConfig AdrConfig() {
  DeviceConfig config = SmallConfig();
  config.backend = MediaBackend::kAdrOptane;
  return config;
}

uint64_t* WordAt(PmDevice& device, size_t offset) {
  return reinterpret_cast<uint64_t*>(device.base() + offset);
}

TEST(XpBuffer, MergesLinesOfSameXpline) {
  XpBuffer buffer(4);
  // Four lines of one XPLine: one insert, three hits, no eviction.
  for (int line = 0; line < 4; line++) {
    auto result = buffer.OnLineFlush(/*xpline=*/7, line);
    EXPECT_FALSE(result.evicted);
  }
  EXPECT_EQ(buffer.resident(), 1u);
}

TEST(XpBuffer, EvictsLruOnOverflow) {
  XpBuffer buffer(2);
  EXPECT_FALSE(buffer.OnLineFlush(1, 0, trace::Component::kLeaf).evicted);
  EXPECT_FALSE(buffer.OnLineFlush(2, 0, trace::Component::kWal).evicted);
  auto result = buffer.OnLineFlush(3, 0, trace::Component::kOther);
  EXPECT_TRUE(result.evicted);
  EXPECT_EQ(result.evicted_comp, trace::Component::kLeaf);  // xpline 1 was LRU
}

TEST(XpBuffer, TouchRefreshesLru) {
  XpBuffer buffer(2);
  buffer.OnLineFlush(1, 0, trace::Component::kLeaf);
  buffer.OnLineFlush(2, 0, trace::Component::kWal);
  buffer.OnLineFlush(1, 1, trace::Component::kLeaf);  // touch 1
  auto result = buffer.OnLineFlush(3, 0, trace::Component::kOther);
  EXPECT_TRUE(result.evicted);
  EXPECT_EQ(result.evicted_comp, trace::Component::kWal);  // 2 is now LRU
}

TEST(XpBuffer, PartialEvictionIsRmw) {
  XpBuffer buffer(1);
  buffer.OnLineFlush(1, 0);  // only 1 of 4 lines dirty
  auto result = buffer.OnLineFlush(2, 0);
  EXPECT_TRUE(result.evicted);
  EXPECT_TRUE(result.rmw);
}

TEST(XpBuffer, FullLineEvictionIsNotRmw) {
  XpBuffer buffer(1);
  for (int line = 0; line < 4; line++) {
    buffer.OnLineFlush(1, line);
  }
  auto result = buffer.OnLineFlush(2, 0);
  EXPECT_TRUE(result.evicted);
  EXPECT_FALSE(result.rmw);
}

TEST(XpBuffer, ReadHitsResidentLines) {
  XpBuffer buffer(4);
  buffer.OnLineFlush(5, 0);
  EXPECT_TRUE(buffer.OnRead(5));
  EXPECT_FALSE(buffer.OnRead(6));
}

TEST(Device, SocketAndDimmMapping) {
  PmDevice device(SmallConfig());
  // Socket 0 region = first half.
  EXPECT_EQ(device.SocketOf(0), 0);
  EXPECT_EQ(device.SocketOf(device.size() / 2), 1);
  // Interleave across the socket's DIMMs at 4 KB.
  EXPECT_EQ(device.DimmOf(0), 0);
  EXPECT_EQ(device.DimmOf(4096), 1);
  EXPECT_EQ(device.DimmOf(8192), 0);
  EXPECT_EQ(device.DimmOf(device.size() / 2), 2);  // socket 1's first DIMM
}

TEST(Device, CliAccountingCountsLineFlushes) {
  PmDevice device(SmallConfig());
  ThreadContext ctx(device, 0);
  device.stats().AddUserBytes(16);
  std::byte* addr = device.base() + 4096;
  std::memset(addr, 1, 16);
  device.FlushLine(ctx, addr);
  device.Fence(ctx);
  auto snapshot = device.stats().Snapshot();
  EXPECT_EQ(snapshot.line_flushes, 1u);
  EXPECT_EQ(snapshot.xpbuffer_write_bytes, 64u);
  EXPECT_DOUBLE_EQ(snapshot.CliAmplification(), 4.0);  // 64 B / 16 B
}

TEST(Device, XbiRequiresEvictionOrDrain) {
  PmDevice device(AdrConfig());
  ThreadContext ctx(device, 0);
  std::byte* addr = device.base() + 4096;
  device.FlushLine(ctx, addr);
  device.Fence(ctx);
  EXPECT_EQ(device.stats().Snapshot().media_write_bytes, 0u);  // still buffered
  device.DrainBuffers();
  EXPECT_EQ(device.stats().Snapshot().media_write_bytes, 256u);
}

// A read-modify-write eviction counts one for the component that buffered
// the evicted XPLine, next to its media read; a full XPLine's eviction counts
// none. Evictions by a fence and by the end-of-run drain count alike.
TEST(Device, RmwEvictionsCountPerComponent) {
  DeviceConfig config = AdrConfig();
  config.num_sockets = 1;
  config.dimms_per_socket = 1;
  config.xpbuffer_bytes = kXplineBytes;  // one XPLine: each new one evicts
  PmDevice device(config);
  ThreadContext ctx(device, 0);
  auto persist = [&](trace::Component comp, size_t xpline, int lines) {
    trace::TraceScope scope(comp);
    for (int line = 0; line < lines; line++) {
      device.FlushLine(ctx, device.base() + xpline * kXplineBytes + line * kCachelineBytes);
    }
    device.Fence(ctx);
  };
  auto rmw = [&device](trace::Component comp) {
    return device.stats().Snapshot().rmw_evictions_by_component[static_cast<int>(comp)];
  };
  persist(trace::Component::kWal, 16, 1);   // one of four lines dirty
  persist(trace::Component::kLeaf, 17, 4);  // evicts the WAL's: a read-modify-write
  EXPECT_EQ(rmw(trace::Component::kWal), 1u);
  EXPECT_EQ(device.stats().Snapshot().media_read_bytes, kXplineBytes);
  persist(trace::Component::kGc, 18, 2);  // evicts the leaf's full XPLine
  EXPECT_EQ(rmw(trace::Component::kLeaf), 0u);
  device.DrainBuffers();  // the GC's half-dirty XPLine
  EXPECT_EQ(rmw(trace::Component::kGc), 1u);
  EXPECT_EQ(device.stats().Snapshot().media_read_bytes, 2 * kXplineBytes);
}

TEST(Device, SequentialWritesAmplifyLessThanRandom) {
  // The core phenomenon of the paper (§2): N random single-line flushes cost
  // N XPLines of media write, while N sequential line flushes cost N/4.
  auto run = [](bool sequential) {
    DeviceConfig config = SmallConfig();
    config.dimms_per_socket = 1;
    config.num_sockets = 1;
    PmDevice device(config);
    ThreadContext ctx(device, 0);
    Rng rng(5);
    const int kFlushes = 4096;
    for (int i = 0; i < kFlushes; i++) {
      size_t offset = sequential
                          ? 4096 + static_cast<size_t>(i) * 64
                          : 4096 + (rng.NextBounded(1 << 15)) * 256;
      device.FlushLine(ctx, device.base() + offset);
      device.Fence(ctx);
    }
    device.DrainBuffers();
    return device.stats().Snapshot().media_write_bytes;
  };
  uint64_t sequential_bytes = run(true);
  uint64_t random_bytes = run(false);
  EXPECT_LT(sequential_bytes * 3, random_bytes);
  EXPECT_EQ(sequential_bytes, 4096u * 64);  // perfect combining: 64 B per flush
}

TEST(Device, CrashDropsUnflushedStores) {
  for (bool torn : {false, true}) {
    PmDevice device(SmallConfig());
    ThreadContext ctx(device, 0);
    auto* word = reinterpret_cast<uint64_t*>(device.base() + 8192);
    *word = 0xAAAA;
    device.PersistRange(ctx, word, 8);
    *word = 0xBBBB;  // stored but never flushed
    *WordAt(device, 8192 + 1024) = 0xCCCC;  // another line of the durable line's page
    if (torn) {
      device.CrashTorn(/*seed=*/3);
    } else {
      device.Crash();
    }
    EXPECT_EQ(*word, 0xAAAAu) << "torn=" << torn;
    EXPECT_EQ(*WordAt(device, 8192 + 1024), 0u) << "torn=" << torn;
  }
}

TEST(Device, CrashDropsFlushedButUnfencedStores) {
  PmDevice device(AdrConfig());
  ThreadContext ctx(device, 0);
  auto* word = reinterpret_cast<uint64_t*>(device.base() + 8192);
  *word = 0x1111;
  device.PersistRange(ctx, word, 8);
  *word = 0x2222;
  device.FlushLine(ctx, word);  // clwb without sfence
  device.Crash();
  EXPECT_EQ(*word, 0x1111u);
}

TEST(Device, FencedStoresSurviveCrash) {
  PmDevice device(SmallConfig());
  ThreadContext ctx(device, 0);
  auto* word = reinterpret_cast<uint64_t*>(device.base() + 8192);
  *word = 0x3333;
  device.FlushLine(ctx, word);
  device.Fence(ctx);
  device.Crash();
  EXPECT_EQ(*word, 0x3333u);
}

TEST(Device, CrashTornAppliesSubsetOfPendingLines) {
  PmDevice device(AdrConfig());
  ThreadContext ctx(device, 0);
  // Prepare 64 pending lines, then crash torn: roughly half should persist.
  for (int i = 0; i < 64; i++) {
    auto* word = reinterpret_cast<uint64_t*>(device.base() + 8192 + i * 64);
    *word = 7;
    device.FlushLine(ctx, word);
  }
  device.CrashTorn(/*seed=*/99);
  int persisted = 0;
  for (int i = 0; i < 64; i++) {
    persisted += *reinterpret_cast<uint64_t*>(device.base() + 8192 + i * 64) == 7;
  }
  EXPECT_GT(persisted, 8);
  EXPECT_LT(persisted, 56);
}

// Crash()/CrashTorn() copy back only the OS pages the durable image holds a
// line of and zero-fill the rest; the pool must still end exactly as the
// durable image. These run under every backend.
TEST(Device, CrashZeroesPagesWithNoDurableLine) {
  for (bool torn : {false, true}) {
    PmDevice device(SmallConfig());
    ThreadContext ctx(device, 0);
    *WordAt(device, 8192) = 0x5151;
    device.PersistRange(ctx, WordAt(device, 8192), 8);
    *WordAt(device, 1 << 20) = 0xDEAD;  // never flushed, on a page with no durable line
    if (torn) {
      device.CrashTorn(/*seed=*/3);
    } else {
      device.Crash();
    }
    EXPECT_EQ(*WordAt(device, 8192), 0x5151u) << "torn=" << torn;
    EXPECT_EQ(*WordAt(device, 1 << 20), 0u) << "torn=" << torn;
  }
}

TEST(Device, SecondCrashRestoresWritesMadeAfterRecovery) {
  PmDevice device(SmallConfig());
  ThreadContext ctx(device, 0);
  *WordAt(device, 8192) = 1;
  device.PersistRange(ctx, WordAt(device, 8192), 8);
  *WordAt(device, 2 << 20) = 2;
  device.Crash();
  ASSERT_EQ(*WordAt(device, 2 << 20), 0u);
  // After recovery: a durable write to the page the first crash zero-filled,
  // lost stores next to the old durable line and on a fresh page.
  *WordAt(device, 2 << 20) = 3;
  device.PersistRange(ctx, WordAt(device, 2 << 20), 8);
  *WordAt(device, 8192 + 64) = 4;
  *WordAt(device, 3 << 20) = 5;
  device.Crash();
  EXPECT_EQ(*WordAt(device, 8192), 1u);
  EXPECT_EQ(*WordAt(device, 8192 + 64), 0u);
  EXPECT_EQ(*WordAt(device, 2 << 20), 3u);
  EXPECT_EQ(*WordAt(device, 3 << 20), 0u);
}

TEST(Device, CrashCoversLastPageOfPool) {
  for (bool durable : {false, true}) {
    PmDevice device(SmallConfig());
    ThreadContext ctx(device, 0);
    const size_t last_line = device.size() - kCachelineBytes;
    *WordAt(device, last_line) = 0xAB;
    if (durable) {
      device.PersistRange(ctx, WordAt(device, last_line), 8);
    }
    *WordAt(device, last_line - kCachelineBytes) = 0xCD;  // same page, never flushed
    device.Crash();
    EXPECT_EQ(*WordAt(device, last_line), durable ? 0xABu : 0u) << "durable=" << durable;
    EXPECT_EQ(*WordAt(device, last_line - kCachelineBytes), 0u) << "durable=" << durable;
  }
}

TEST(Device, VirtualClockAdvancesOnPmReads) {
  PmDevice device(SmallConfig());
  ThreadContext ctx(device, 0);
  uint64_t before = ctx.now_ns();
  device.ReadPm(ctx, device.base() + 4096, 256);
  EXPECT_GT(ctx.now_ns(), before);
}

TEST(Device, RemoteReadsCostMore) {
  PmDevice device(SmallConfig());
  uint64_t local_cost = 0;
  uint64_t remote_cost = 0;
  {
    ThreadContext ctx(device, 0);
    device.ReadPm(ctx, device.base() + 4096, 256);  // socket 0 address
    local_cost = ctx.now_ns();
  }
  {
    ThreadContext ctx(device, 1);
    device.ReadPm(ctx, device.base() + 4096, 256);
    remote_cost = ctx.now_ns();
  }
  EXPECT_GT(remote_cost, local_cost);
  EXPECT_EQ(device.stats().Snapshot().remote_accesses, 1u);
}

TEST(Device, WpqBackpressureStallsWriters) {
  // Flood one DIMM with random-XPLine flushes: the virtual clock must grow
  // roughly linearly with the number of media writes (the Figure 2(b)
  // regime) rather than with the flush CPU cost alone.
  DeviceConfig config = AdrConfig();
  config.num_sockets = 1;
  config.dimms_per_socket = 1;
  PmDevice device(config);
  ThreadContext ctx(device, 0);
  Rng rng(3);
  const int kWrites = 2000;
  for (int i = 0; i < kWrites; i++) {
    size_t offset = 4096 + rng.NextBounded(1 << 14) * 256;
    device.FlushLine(ctx, device.base() + offset);
    device.Fence(ctx);
  }
  // Each eviction costs >= xpline_write_service_ns of device time; with the
  // slack subtracted, the clock should be within 2x of the media-bound time.
  uint64_t media_lower_bound =
      static_cast<uint64_t>(kWrites - 200) * config.cost.xpline_write_service_ns;
  EXPECT_GT(ctx.now_ns() + config.cost.wpq_slack_ns, media_lower_bound / 2);
}

TEST(Device, EadrModePersistsWithoutFence) {
  DeviceConfig config = SmallConfig();
  config.backend = MediaBackend::kEadr;
  PmDevice device(config);
  ThreadContext ctx(device, 0);
  auto* word = reinterpret_cast<uint64_t*>(device.base() + 8192);
  *word = 0x77;
  device.FlushLine(ctx, word);  // no fence needed in eADR
  device.Crash();
  EXPECT_EQ(*word, 0x77u);
}

TEST(Device, EadrRandomizedEvictionRaisesXbiOfSequentialStream) {
  // In eADR mode implicit cache evictions randomize the order in which lines
  // reach the XPBuffer, breaking write combining for sequential streams
  // (paper §5.5). XBI(eADR) should exceed XBI(ADR) for the same stream.
  auto run = [](bool eadr) {
    DeviceConfig config;
    config.pool_bytes = 64 << 20;
    config.num_sockets = 1;
    config.dimms_per_socket = 1;
    config.backend = eadr ? MediaBackend::kEadr : MediaBackend::kAdrOptane;
    config.eadr_cache_lines = 1024;
    PmDevice device(config);
    ThreadContext ctx(device, 0);
    for (int i = 0; i < 200000; i++) {
      device.FlushLine(ctx, device.base() + 4096 + static_cast<size_t>(i) * 64);
      device.Fence(ctx);
    }
    device.DrainBuffers();
    return device.stats().Snapshot().media_write_bytes;
  };
  EXPECT_GT(run(true), run(false));
}

TEST(CrashInjector, CountOnlyProbeCountsFencesWithoutFiring) {
  PmDevice device(SmallConfig());
  ThreadContext ctx(device, 0);
  CrashInjector injector;
  device.SetCrashInjector(&injector);
  injector.Arm(/*fence_target=*/0);  // count-only
  for (int i = 0; i < 5; i++) {
    auto* word = reinterpret_cast<uint64_t*>(device.base() + 8192 + i * 64);
    *word = 1;
    device.FlushLine(ctx, word);
    device.Fence(ctx);
  }
  device.SetCrashInjector(nullptr);
  EXPECT_EQ(injector.fences_observed(), 5u);
  EXPECT_FALSE(injector.fired());
}

TEST(CrashInjector, DetachedInjectorIsInert) {
  PmDevice device(SmallConfig());
  ThreadContext ctx(device, 0);
  CrashInjector injector;
  injector.Arm(/*fence_target=*/1);
  // Armed but never attached to the device: fences must not fire it.
  auto* word = reinterpret_cast<uint64_t*>(device.base() + 8192);
  *word = 1;
  device.FlushLine(ctx, word);
  device.Fence(ctx);
  EXPECT_EQ(injector.fences_observed(), 0u);
  EXPECT_FALSE(injector.fired());
}

TEST(CrashInjector, FiresAtTargetBeforeCommittingPendingLines) {
  PmDevice device(AdrConfig());
  ThreadContext ctx(device, 0);
  auto* word = reinterpret_cast<uint64_t*>(device.base() + 8192);
  *word = 0x1111;
  device.FlushLine(ctx, word);
  device.Fence(ctx);  // durable baseline

  CrashInjector injector;
  device.SetCrashInjector(&injector);
  injector.Arm(/*fence_target=*/1);
  *word = 0x2222;
  device.FlushLine(ctx, word);
  uint64_t caught_index = 0;
  try {
    device.Fence(ctx);  // power lost at the sfence
  } catch (const CrashPointReached& crash) {
    caught_index = crash.fence_index;
  }
  device.SetCrashInjector(nullptr);
  EXPECT_EQ(caught_index, 1u);
  EXPECT_TRUE(injector.fired());
  // The interrupted fence never committed: the crash drops the pending line.
  device.Crash();
  EXPECT_EQ(*word, 0x1111u);
}

TEST(CrashInjector, FiresAtMostOnce) {
  PmDevice device(SmallConfig());
  ThreadContext ctx(device, 0);
  CrashInjector injector;
  device.SetCrashInjector(&injector);
  injector.Arm(/*fence_target=*/2);
  int fired = 0;
  for (int i = 0; i < 6; i++) {
    try {
      device.Fence(ctx);
    } catch (const CrashPointReached&) {
      fired++;
    }
  }
  device.SetCrashInjector(nullptr);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(injector.fences_observed(), 6u);
}

TEST(CrashInjector, CrashCountersAccountDroppedAndTornLines) {
  PmDevice device(AdrConfig());
  ThreadContext ctx(device, 0);
  for (int i = 0; i < 16; i++) {
    auto* word = reinterpret_cast<uint64_t*>(device.base() + 8192 + i * 64);
    *word = 9;
    device.FlushLine(ctx, word);
  }
  device.Crash();  // all 16 pending lines dropped
  auto after_clean = device.stats().Snapshot();
  EXPECT_EQ(after_clean.crashes_injected, 1u);
  EXPECT_EQ(after_clean.crash_lines_dropped, 16u);
  EXPECT_EQ(after_clean.crash_torn_lines_applied, 0u);

  for (int i = 0; i < 16; i++) {
    auto* word = reinterpret_cast<uint64_t*>(device.base() + 8192 + i * 64);
    *word = 11;
    device.FlushLine(ctx, word);
  }
  device.CrashTorn(/*seed=*/5);  // each pending line torn-persists with p=1/2
  auto after_torn = device.stats().Snapshot();
  EXPECT_EQ(after_torn.crashes_injected, 2u);
  EXPECT_EQ(after_torn.crash_lines_dropped + after_torn.crash_torn_lines_applied, 32u);
  EXPECT_GT(after_torn.crash_torn_lines_applied, 0u);
}

TEST(CrashInjector, TornCrashDrawsForContextsTheCrashUnwound) {
  PmDevice device(AdrConfig());
  CrashInjector injector;
  device.SetCrashInjector(&injector);
  injector.Arm(/*fence_target=*/1);
  try {
    ThreadContext ctx(device, 0);
    for (int i = 0; i < 16; i++) {
      auto* word = reinterpret_cast<uint64_t*>(device.base() + 8192 + i * 64);
      *word = 9;
      device.FlushLine(ctx, word);
    }
    device.Fence(ctx);  // power lost at the sfence; ctx unwinds with 16 lines
  } catch (const CrashPointReached&) {
  }
  device.SetCrashInjector(nullptr);
  device.CrashTorn(/*seed=*/5);
  auto stats = device.stats().Snapshot();
  EXPECT_EQ(stats.crash_lines_dropped + stats.crash_torn_lines_applied, 16u);
  EXPECT_GT(stats.crash_torn_lines_applied, 0u);
  EXPECT_GT(stats.crash_lines_dropped, 0u);
}

TEST(ThreadContext, NestingRestoresPrevious) {
  PmDevice device(SmallConfig());
  ThreadContext outer(device, 0);
  EXPECT_EQ(ThreadContext::Current(), &outer);
  {
    ThreadContext inner(device, 1);
    EXPECT_EQ(ThreadContext::Current(), &inner);
  }
  EXPECT_EQ(ThreadContext::Current(), &outer);
}

// Steps go w0, w1, w2, w0, ..., each with the worker's own context current,
// and a worker whose step returned false is never stepped again.
TEST(VirtualWorkers, RunStepsRoundRobinAndSkipsFinishedWorkers) {
  PmDevice device(SmallConfig());
  VirtualWorkers workers(device, 3, [](int w) { return w % 2; });
  std::vector<int> steps_left = {1, 3, 2};
  std::vector<int> order;
  workers.Run([&](int w) {
    ThreadContext* ctx = ThreadContext::Current();
    EXPECT_EQ(ctx->worker_id(), w);
    EXPECT_EQ(ctx->socket(), w % 2);
    order.push_back(w);
    return --steps_left[static_cast<size_t>(w)] > 0;
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 1, 2, 1}));
}

TEST(VirtualWorkers, RunRestoresTheCallersContext) {
  PmDevice device(SmallConfig());
  ThreadContext caller(device, 0);
  VirtualWorkers workers(device, 2, [](int) { return 0; });
  EXPECT_EQ(ThreadContext::Current(), &caller);
  workers.Run([&](int) {
    EXPECT_NE(ThreadContext::Current(), &caller);
    return false;
  });
  EXPECT_EQ(ThreadContext::Current(), &caller);
  // A crash injector aborts a step by throwing; the caller's context is
  // still restored.
  EXPECT_THROW(workers.Run([](int) -> bool { throw CrashPointReached{}; }), CrashPointReached);
  EXPECT_EQ(ThreadContext::Current(), &caller);
}

TEST(VirtualWorkers, BarrierRaisesEveryClockToTheSlowest) {
  PmDevice device(SmallConfig());
  VirtualWorkers workers(device, 3, [](int) { return 0; }, /*start_ns=*/100);
  std::vector<uint64_t> clocks;
  workers.Run([&](int w) {
    clocks.push_back(ThreadContext::Current()->now_ns());
    ThreadContext::Current()->AdvanceCpu(10 * static_cast<uint64_t>(w + 1));
    return false;
  });
  EXPECT_EQ(clocks, (std::vector<uint64_t>{100, 100, 100}));
  EXPECT_EQ(workers.Barrier(), 130u);
  clocks.clear();
  workers.Run([&](int) {
    clocks.push_back(ThreadContext::Current()->now_ns());
    return false;
  });
  EXPECT_EQ(clocks, (std::vector<uint64_t>{130, 130, 130}));
}

}  // namespace
}  // namespace cclbt::pmsim
