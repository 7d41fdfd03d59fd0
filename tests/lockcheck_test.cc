// Tests for lockcheck, the lockset / lock-order sanitizer (DESIGN.md §16):
// one deliberately-buggy driver per diagnostic class asserting the exact
// diagnostic fires (fence_publish_gap with and without pmcheck's redirty
// confirmation), suppression via LockCheckExpect, the retention cap,
// ownership-transfer resets, the disabled gate (no checker, no events), and
// clean-run checks over a cclbtree fig10-micro workload and a 4-shard
// service run.
#include <cstdlib>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "src/bench/driver.h"
#include "src/common/lock.h"
#include "src/common/simd.h"
#include "src/kvindex/runtime.h"
#include "src/pmsim/device.h"
#include "src/pmsim/lockcheck.h"
#include "src/pmsim/pmcheck.h"
#include "src/service/service.h"

namespace cclbt::pmsim {
namespace {

// The CI harness runs the whole suite with CCL_LOCKCHECK=1; these tests opt
// in explicitly per device (and the disabled-gate test asserts the opt-out
// default), so drop the override to keep the assertions valid anywhere.
[[maybe_unused]] const bool g_env_cleared = [] {
  unsetenv("CCL_LOCKCHECK");
  return true;
}();

DeviceConfig CheckedConfig() {
  DeviceConfig config;
  config.pool_bytes = 16 << 20;
  config.num_sockets = 2;
  config.dimms_per_socket = 2;
  config.lockcheck = true;
  return config;
}

// A plain PM store; the checker sees the write at FlushLine (the commitment
// that the line was stored).
void StoreAndFlush(PmDevice& device, ThreadContext& ctx, uintptr_t offset, uint64_t value) {
  std::memcpy(device.base() + offset, &value, sizeof(value));
  device.FlushLine(ctx, device.base() + offset);
}

LockCheckReport Report(PmDevice& device) { return device.lockcheck()->Snapshot(); }

uint64_t Count(const LockCheckReport& report, LockCheckClass cls) {
  return report.counts[static_cast<size_t>(cls)];
}

// --- disabled gate -----------------------------------------------------------

TEST(LockCheck, DisabledByDefaultNoCheckerNoEvents) {
  PmDevice device{DeviceConfig{}};
  EXPECT_EQ(device.lockcheck(), nullptr);
  // With no checker there is no installed observer: wrapper locks and device
  // hooks must run (and count nothing) without one.
  ThreadContext ctx(device, 0, /*worker_id=*/0);
  sync::Mutex mu{"test.gate"};
  mu.lock();
  StoreAndFlush(device, ctx, 64, 0x61);
  mu.unlock();
  device.Fence(ctx);
  EXPECT_EQ(device.lockcheck(), nullptr);
}

TEST(LockCheck, EnabledCheckerStartsAllZero) {
  PmDevice device{CheckedConfig()};
  ASSERT_NE(device.lockcheck(), nullptr);
  LockCheckReport report = Report(device);
  EXPECT_TRUE(report.enabled);
  EXPECT_EQ(report.total(), 0u);
  EXPECT_EQ(report.total_info(), 0u);
  EXPECT_EQ(report.total_suppressed(), 0u);
  EXPECT_EQ(report.stat("locks_tracked"), 0u);
  EXPECT_EQ(report.diagnostics_truncated, 0u);
  EXPECT_TRUE(report.diagnostics.empty());
}

// --- class 1: unlocked write -------------------------------------------------

TEST(LockCheck, UnlockedWriteBySecondWorker) {
  PmDevice device{CheckedConfig()};
  ThreadContext w0(device, 0, /*worker_id=*/0);
  ThreadContext w1(device, 1, /*worker_id=*/1);  // two live contexts
  // First access: worker 0 owns the line, no locks needed (single-writer
  // data like per-worker WALs never leaves this state).
  StoreAndFlush(device, w0, 64, 0xA0);
  EXPECT_EQ(Report(device).total(), 0u);
  // A second worker writes the same line holding nothing: no lock protocol
  // can explain the sharing.
  StoreAndFlush(device, w1, 64, 0xA1);
  LockCheckReport report = Report(device);
  EXPECT_EQ(Count(report, LockCheckClass::kUnlockedWrite), 1u);
  EXPECT_EQ(report.total(), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].cls, LockCheckClass::kUnlockedWrite);
  EXPECT_EQ(report.diagnostics[0].line, 64u);
  EXPECT_EQ(report.diagnostics[0].worker, 1);
  EXPECT_STREQ(report.diagnostics[0].detail, "multi-worker-write-holds-no-exclusive-lock");
  // One diagnostic per line: repeating the bad write must not re-report.
  StoreAndFlush(device, w0, 64, 0xA2);
  EXPECT_EQ(Report(device).total(), 1u);
}

// --- class 2: lockset empty after intersection -------------------------------

TEST(LockCheck, LocksetEmptyWhenWritersAgreeOnNoCommonLock) {
  PmDevice device{CheckedConfig()};
  ThreadContext w0(device, 0, /*worker_id=*/0);
  ThreadContext w1(device, 1, /*worker_id=*/1);
  sync::Mutex l1{"test.l1"};
  sync::Mutex l2{"test.l2"};
  StoreAndFlush(device, w0, 128, 0xB0);  // first access: exclusive
  // Second party holds both locks: candidate lockset C = {l1, l2}.
  l1.lock();
  l2.lock();
  StoreAndFlush(device, w1, 128, 0xB1);
  l2.unlock();
  l1.unlock();
  // Next write holds only l1: C narrows to {l1} — still consistent.
  l1.lock();
  StoreAndFlush(device, w0, 128, 0xB2);
  l1.unlock();
  EXPECT_EQ(Report(device).total(), 0u);
  // Next write holds only l2: C ∩ {l2} = ∅ — no single lock protected every
  // write. The diagnostic names the lock the writers used to agree on.
  l2.lock();
  StoreAndFlush(device, w1, 128, 0xB3);
  l2.unlock();
  LockCheckReport report = Report(device);
  EXPECT_EQ(Count(report, LockCheckClass::kLocksetEmpty), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].cls, LockCheckClass::kLocksetEmpty);
  EXPECT_EQ(report.diagnostics[0].line, 128u);
  EXPECT_STREQ(report.diagnostics[0].lock, "test.l1");
  EXPECT_STREQ(report.diagnostics[0].detail, "no-common-lock-across-writers");
}

// Consistent lock discipline across many writers never reports.
TEST(LockCheck, ConsistentLockingIsClean) {
  PmDevice device{CheckedConfig()};
  ThreadContext w0(device, 0, /*worker_id=*/0);
  ThreadContext w1(device, 1, /*worker_id=*/1);
  sync::Mutex mu{"test.shared"};
  for (int round = 0; round < 4; ++round) {
    ThreadContext& ctx = (round % 2 == 0) ? w0 : w1;
    mu.lock();
    StoreAndFlush(device, ctx, 192, 0xC0 + static_cast<uint64_t>(round));
    mu.unlock();
  }
  EXPECT_EQ(Report(device).total(), 0u);
}

// --- class 3: seqlock write without version bump -----------------------------

TEST(LockCheck, SeqlockWriteWithoutVersionBump) {
  PmDevice device{CheckedConfig()};
  ThreadContext w0(device, 0, /*worker_id=*/0);
  ThreadContext w1(device, 1, /*worker_id=*/1);
  sync::SeqLock seq{"test.seq"};
  sync::Mutex other{"test.other"};
  // Both writers hold the seqlock write-side: C = {seq}.
  seq.Lock();
  StoreAndFlush(device, w0, 256, 0xD0);
  seq.Unlock();
  seq.Lock();
  StoreAndFlush(device, w1, 256, 0xD1);
  seq.Unlock();
  EXPECT_EQ(Report(device).total(), 0u);
  // A write that holds *a* lock, but not the seqlock: optimistic readers
  // validating against the version counter cannot detect this mutation.
  other.lock();
  StoreAndFlush(device, w0, 256, 0xD2);
  other.unlock();
  LockCheckReport report = Report(device);
  EXPECT_EQ(Count(report, LockCheckClass::kSeqWriteNoBump), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].cls, LockCheckClass::kSeqWriteNoBump);
  EXPECT_EQ(report.diagnostics[0].line, 256u);
  EXPECT_STREQ(report.diagnostics[0].lock, "test.seq");
  EXPECT_STREQ(report.diagnostics[0].detail, "write-without-version-bump");
}

// --- class 4: lock-order cycle -----------------------------------------------

TEST(LockCheck, AbBaCycleReportsOnClosingEdge) {
  if (simd::kTsanBuild) {
    // The seeded AB-BA inversion below is exactly what TSan's own deadlock
    // detector reports; lockcheck's cycle detection is covered by the
    // non-instrumented runs.
    GTEST_SKIP() << "seeded lock-order inversion trips TSan's deadlock detector";
  }
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, /*worker_id=*/0);
  sync::Mutex a{"test.a"};
  sync::Mutex b{"test.b"};
  // a → b: fine the first time.
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  EXPECT_EQ(Report(device).total(), 0u);
  // b → a closes the cycle; the diagnostic names the closing edge.
  b.lock();
  a.lock();
  a.unlock();
  b.unlock();
  LockCheckReport report = Report(device);
  EXPECT_EQ(Count(report, LockCheckClass::kLockCycle), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].cls, LockCheckClass::kLockCycle);
  EXPECT_STREQ(report.diagnostics[0].lock, "test.b");
  EXPECT_STREQ(report.diagnostics[0].lock2, "test.a");
  EXPECT_STREQ(report.diagnostics[0].detail, "cycle-closing-edge");
  EXPECT_GE(report.stat("order_edges"), 2u);
  // The known-edge path must not re-report the same cycle.
  b.lock();
  a.lock();
  a.unlock();
  b.unlock();
  EXPECT_EQ(Count(Report(device), LockCheckClass::kLockCycle), 1u);
}

// Try-acquires cannot block, so they add no ordering edges: the trylock
// convention (bn latch backoff, GC tick gate) is cycle-exempt by design.
TEST(LockCheck, TryAcquireAddsNoOrderEdge) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, /*worker_id=*/0);
  sync::Mutex a{"test.try_a"};
  sync::Mutex b{"test.try_b"};
  a.lock();
  ASSERT_TRUE(b.try_lock());
  b.unlock();
  a.unlock();
  b.lock();
  ASSERT_TRUE(a.try_lock());
  a.unlock();
  b.unlock();
  EXPECT_EQ(Count(Report(device), LockCheckClass::kLockCycle), 0u);
}

// --- class 5: fence-publish gap ----------------------------------------------

// Seeds the gap on line kPublishLine: workers 0 and 1 each write it under
// lock A and fence while still holding A (C = {A}); then worker 0 stores and
// flushes it under A, releases A, optionally stores it again, and fences.
constexpr uintptr_t kPublishLine = 640;

void SeedFencePublishGap(PmDevice& device, bool store_after_release) {
  ThreadContext w0(device, 0, /*worker_id=*/0);
  ThreadContext w1(device, 1, /*worker_id=*/1);
  sync::Mutex a{"test.publish"};
  uint64_t value = 0x70;
  for (ThreadContext* w : {&w0, &w1}) {
    a.lock();
    StoreAndFlush(device, *w, kPublishLine, value++);
    device.Fence(*w);
    a.unlock();
  }
  a.lock();
  StoreAndFlush(device, w0, kPublishLine, value++);
  a.unlock();
  if (store_after_release) {
    std::memcpy(device.base() + kPublishLine, &value, sizeof(value));
  }
  device.Fence(w0);
}

DeviceConfig PublishConfig(bool pmcheck) {
  DeviceConfig config = CheckedConfig();
  config.backend = MediaBackend::kAdrOptane;  // the window needs explicit fences
  config.pmcheck = pmcheck;
  return config;
}

// Without pmcheck nothing can confirm a write into the window: one
// informational finding, no violation.
TEST(LockCheck, FencePublishGapIsInfoWithoutPmcheck) {
  const std::string pmcheck_env =
      std::getenv("CCL_PMCHECK") != nullptr ? std::getenv("CCL_PMCHECK") : "";
  setenv("CCL_PMCHECK", "0", 1);  // off whatever the suite runs under
  PmDevice device{PublishConfig(false)};
  setenv("CCL_PMCHECK", pmcheck_env.c_str(), 1);
  ASSERT_EQ(device.pmcheck(), nullptr);
  SeedFencePublishGap(device, /*store_after_release=*/true);
  LockCheckReport report = Report(device);
  EXPECT_EQ(report.total(), 0u);
  EXPECT_EQ(report.info[static_cast<size_t>(LockCheckClass::kFencePublishGap)], 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_TRUE(report.diagnostics[0].info);
  EXPECT_EQ(report.diagnostics[0].line, kPublishLine);
  EXPECT_STREQ(report.diagnostics[0].lock, "test.publish");
  EXPECT_STREQ(report.diagnostics[0].detail, "publish-window-unprotected");
}

// With pmcheck on, its shadow state confirms the line changed after its
// flush: the gap escalates to a violation (and pmcheck sees dirty_at_fence).
TEST(LockCheck, FencePublishGapRedirtiedIsAViolationWithPmcheck) {
  PmDevice device{PublishConfig(true)};
  ASSERT_NE(device.pmcheck(), nullptr);
  SeedFencePublishGap(device, /*store_after_release=*/true);
  LockCheckReport report = Report(device);
  EXPECT_EQ(Count(report, LockCheckClass::kFencePublishGap), 1u);
  EXPECT_EQ(report.total(), 1u);
  EXPECT_EQ(report.total_info(), 0u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_FALSE(report.diagnostics[0].info);
  EXPECT_STREQ(report.diagnostics[0].detail, "redirtied-since-flush");
  PmCheckReport pm = device.pmcheck()->Snapshot();
  EXPECT_EQ(pm.counts[static_cast<size_t>(PmCheckClass::kDirtyAtFence)], 1u);
}

// --- retention cap -------------------------------------------------------------

// Past 256 materialized violations the rest are counted and marked
// truncated, as in pmcheck: both checkers share the cap.
TEST(LockCheck, ViolationOverflowCountsAsTruncation) {
  PmDevice device{CheckedConfig()};
  ThreadContext w0(device, 0, /*worker_id=*/0);
  ThreadContext w1(device, 1, /*worker_id=*/1);
  for (uintptr_t i = 0; i < 300; i++) {
    StoreAndFlush(device, w0, 64 * (i + 1), 0x100 + i);
    StoreAndFlush(device, w1, 64 * (i + 1), 0x200 + i);  // unlocked_write
  }
  LockCheckReport report = Report(device);
  EXPECT_EQ(report.total(), 300u);
  EXPECT_EQ(report.diagnostics.size(), 256u);
  EXPECT_EQ(report.diagnostics_truncated, 44u);
}

// --- suppression and ownership transfer --------------------------------------

TEST(LockCheck, ExpectSuppressesInScopeOnly) {
  PmDevice device{CheckedConfig()};
  ThreadContext w0(device, 0, /*worker_id=*/0);
  ThreadContext w1(device, 1, /*worker_id=*/1);
  StoreAndFlush(device, w0, 320, 0xE0);
  {
    LockCheckExpect expect(LockCheckClass::kUnlockedWrite);
    StoreAndFlush(device, w1, 320, 0xE1);  // intentional protocol exception
  }
  LockCheckReport report = Report(device);
  EXPECT_EQ(report.total(), 0u);
  EXPECT_EQ(report.suppressed[static_cast<size_t>(LockCheckClass::kUnlockedWrite)], 1u);
  // The suppression ends with the scope: a fresh line reports normally.
  StoreAndFlush(device, w0, 384, 0xE2);
  StoreAndFlush(device, w1, 384, 0xE3);
  EXPECT_EQ(Count(Report(device), LockCheckClass::kUnlockedWrite), 1u);
}

TEST(LockCheck, ResetRangeTransfersOwnership) {
  PmDevice device{CheckedConfig()};
  ThreadContext w0(device, 0, /*worker_id=*/0);
  ThreadContext w1(device, 1, /*worker_id=*/1);
  StoreAndFlush(device, w0, 448, 0xF0);
  // Allocator hands the range to a new logical owner (slab slot reuse, WAL
  // chunk recycling): the stale history must not count worker 1's next
  // write as second-party sharing.
  LockCheckResetRange(device.base() + 448, 64);
  StoreAndFlush(device, w1, 448, 0xF1);
  EXPECT_EQ(Report(device).total(), 0u);
}

// A crash resets line history (the working image is rebuilt from the durable
// one) but keeps run-wide counters.
TEST(LockCheck, CrashClearsLineHistory)
{
  PmDevice device{CheckedConfig()};
  ThreadContext w0(device, 0, /*worker_id=*/0);
  ThreadContext w1(device, 1, /*worker_id=*/1);
  StoreAndFlush(device, w0, 512, 0x11);
  device.Crash();
  // Post-crash, the same line is first-access again for either worker.
  StoreAndFlush(device, w1, 512, 0x12);
  LockCheckReport report = Report(device);
  EXPECT_EQ(report.total(), 0u);
}

}  // namespace
}  // namespace cclbt::pmsim

namespace cclbt::bench {
namespace {

// The shipped CCL-BTree must be lockcheck-clean on a fig10-micro style
// workload: warm inserts + measured upserts, background GC on (the default),
// several logical workers on both sockets, so both sockets' leaf slabs grow.
TEST(LockCheck, CleanRunOnCclbtreeFig10Micro) {
  RunConfig config;
  config.threads = 4;
  config.warm_keys = 40'000;
  config.ops = 15'000;
  config.op = OpType::kUpdate;
  RunResult result = RunIndexWorkload(
      "cclbtree", config, {}, {.pool_bytes = 1ULL << 30, .cores_per_socket = 2, .lockcheck = true});
  ASSERT_TRUE(result.lockcheck.enabled);
  EXPECT_EQ(result.lockcheck.total(), 0u)
      << "first diagnostic: "
      << (result.lockcheck.diagnostics.empty() ? "(none materialized)"
                                               : result.lockcheck.diagnostics[0].detail);
  EXPECT_EQ(result.lockcheck.total_info(), 0u);
  EXPECT_EQ(result.lockcheck.diagnostics_truncated, 0u);
  EXPECT_GT(result.lockcheck.stat("locks_tracked"), 0u);
  EXPECT_GT(result.lockcheck.stat("lines_tracked"), 0u);
}

}  // namespace
}  // namespace cclbt::bench

namespace cclbt::service {
namespace {

// The 4-shard service front-end — real shard queues, batching, admission
// control — must be lockcheck-clean over a warm + open-loop run.
TEST(LockCheck, CleanRunOnFourShardService) {
  kvindex::RuntimeOptions options;
  options.device.pool_bytes = 256 << 20;
  options.device.num_sockets = 2;
  options.device.dimms_per_socket = 2;
  options.device.lockcheck = true;
  kvindex::Runtime rt(options);
  ASSERT_NE(rt.device().lockcheck(), nullptr);
  ServiceConfig config;
  config.shards = 4;
  config.queue_capacity = 32;
  config.batch_ops = 4;
  ShardedKvService svc(rt, config);
  OpenLoopConfig w;
  w.ops = 6'000;
  w.warm_keys = 3'000;
  w.offered_mops = 4.0;
  w.mix = &kYcsbInsertIntensive;
  w.seed = 99;
  svc.Warm(w);
  ServiceResult result = svc.Run(w);
  EXPECT_GT(result.completed, 0u);
  pmsim::LockCheckReport report = rt.device().lockcheck()->Snapshot();
  EXPECT_EQ(report.total(), 0u)
      << "first diagnostic: "
      << (report.diagnostics.empty() ? "(none materialized)" : report.diagnostics[0].detail);
  EXPECT_EQ(report.total_info(), 0u);
  EXPECT_GT(report.stat("locks_tracked"), 0u);
}

}  // namespace
}  // namespace cclbt::service
