// Tests for pmcheck, the persistency-ordering checker (DESIGN.md §11): one
// deliberately-buggy driver per diagnostic class asserting the exact
// diagnostic fires, suppression via PmCheckExpect, the retention caps,
// crash-injection interaction, and clean-run checks over a cclbtree
// fig10-micro workload and over cclbtree and cclhash recovery.
#include <cstdlib>
#include <cstring>

#include <gtest/gtest.h>

#include "src/bench/driver.h"
#include "src/common/rng.h"
#include "src/core/ccl_btree.h"
#include "src/core/ccl_hash.h"
#include "src/pmsim/device.h"
#include "src/pmsim/lockcheck.h"
#include "src/pmsim/pmcheck.h"

namespace cclbt::pmsim {
namespace {

// The CI harness runs the whole suite with CCL_PMCHECK=1 and (in the
// backend-matrix step) with CCL_BACKEND set; these tests opt in explicitly
// per device and assert the per-backend rule tables themselves, so drop both
// overrides to keep the assertions valid in any environment.
[[maybe_unused]] const bool g_env_cleared = [] {
  unsetenv("CCL_PMCHECK");
  unsetenv("CCL_BACKEND");
  return true;
}();

DeviceConfig CheckedConfig() {
  DeviceConfig config;
  config.pool_bytes = 16 << 20;
  config.num_sockets = 2;
  config.dimms_per_socket = 2;
  config.pmcheck = true;
  return config;
}

// Writes one word into the working image (a plain PM store).
void Store(PmDevice& device, uintptr_t offset, uint64_t value) {
  std::memcpy(device.base() + offset, &value, sizeof(value));
}

PmCheckReport Report(PmDevice& device) { return device.pmcheck()->Snapshot(); }

uint64_t Count(const PmCheckReport& report, PmCheckClass cls) {
  return report.counts[static_cast<size_t>(cls)];
}

TEST(PmCheck, EnabledViaConfigDisabledByDefault) {
  PmDevice off{DeviceConfig{}};
  EXPECT_EQ(off.pmcheck(), nullptr);
  PmDevice on{CheckedConfig()};
  ASSERT_NE(on.pmcheck(), nullptr);
  // The checker needs the shadow image even if the caller disabled it.
  DeviceConfig no_shadow = CheckedConfig();
  no_shadow.crash_tracking = false;
  PmDevice forced{no_shadow};
  ASSERT_NE(forced.pmcheck(), nullptr);
  EXPECT_TRUE(forced.config().crash_tracking);
}

// The eADR backend keeps the checker ON but applies its rule table
// (DESIGN.md §14): flush/fence discipline classes are downgraded to
// informational (they are waste, not bugs, in a flush-free domain) while
// unflushed-at-close still reports — a store never flushed is not durable
// even under eADR's model.
TEST(PmCheck, EadrDowngradesFlushDisciplineToInfo) {
  DeviceConfig config = CheckedConfig();
  config.backend = MediaBackend::kEadr;
  PmDevice device{config};
  ASSERT_NE(device.pmcheck(), nullptr);
  ThreadContext ctx(device, 0, 0);
  Store(device, 64, 0xE1);
  device.FlushLine(ctx, device.base() + 64);  // dirty: durable now, no diag
  device.FlushLine(ctx, device.base() + 64);  // clean re-flush: info only
  device.Fence(ctx);                          // fence in flush-free domain: info
  PmCheckReport report = Report(device);
  EXPECT_EQ(report.total(), 0u) << "downgraded classes must not count as violations";
  EXPECT_EQ(report.info[static_cast<size_t>(PmCheckClass::kRedundantFlush)], 1u);
  EXPECT_EQ(report.info[static_cast<size_t>(PmCheckClass::kUselessFence)], 1u);
  // The materialized diagnostics carry the info flag for pmctl.
  bool saw_info_diag = false;
  for (const PmCheckDiagnostic& d : report.diagnostics) {
    saw_info_diag |= d.info;
  }
  EXPECT_TRUE(saw_info_diag);
}

// Informational diagnostics past their materialization budget are counted
// as truncated, like violations past theirs: a nonzero marker is what tells
// `pmctl check` the list is incomplete.
TEST(PmCheck, InfoOverflowCountsAsTruncation) {
  DeviceConfig config = CheckedConfig();
  config.backend = MediaBackend::kEadr;
  PmDevice device{config};
  ASSERT_NE(device.pmcheck(), nullptr);
  ThreadContext ctx(device, 0, 0);
  for (int i = 0; i < 40; i++) {
    device.Fence(ctx);  // fence in flush-free domain: info
  }
  PmCheckReport report = Report(device);
  EXPECT_EQ(report.total(), 0u);
  EXPECT_EQ(report.total_info(), 40u);
  EXPECT_EQ(report.diagnostics.size(), 16u);
  EXPECT_EQ(report.diagnostics_truncated, 24u);
}

// The violation cap works the same way: past 256 materialized violations the
// rest are counted and marked truncated.
TEST(PmCheck, ViolationOverflowCountsAsTruncation) {
  DeviceConfig config = CheckedConfig();
  config.backend = MediaBackend::kAdrOptane;
  PmDevice device{config};
  ThreadContext ctx(device, 0, 0);
  for (int i = 0; i < 300; i++) {
    device.Fence(ctx);  // useless fence on ADR: a violation
  }
  PmCheckReport report = Report(device);
  EXPECT_EQ(report.total(), 300u);
  EXPECT_EQ(report.diagnostics.size(), 256u);
  EXPECT_EQ(report.diagnostics_truncated, 44u);
}

// eADR rule table, off classes: a store that stays dirty across a fence is
// not a hazard when persistence does not hinge on flush ordering.
TEST(PmCheck, EadrDirtyAtFenceIsOff) {
  DeviceConfig config = CheckedConfig();
  config.backend = MediaBackend::kEadr;
  PmDevice device{config};
  ASSERT_NE(device.pmcheck(), nullptr);
  ThreadContext ctx(device, 0, 0);
  Store(device, 128, 0xE2);
  device.Fence(ctx);  // dirty line at fence: kOff on eADR
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kDirtyAtFence), 0u);
  EXPECT_EQ(report.info[static_cast<size_t>(PmCheckClass::kDirtyAtFence)], 0u);
}

// eADR rule table, still-real class: closing the device with a never-flushed
// store reports — even the flush-free domain only persists what reached it.
TEST(PmCheck, EadrUnflushedAtCloseStillReports) {
  DeviceConfig config = CheckedConfig();
  config.backend = MediaBackend::kEadr;
  PmDevice device{config};
  ASSERT_NE(device.pmcheck(), nullptr);
  ThreadContext ctx(device, 0, 0);
  Store(device, 192, 0xE3);  // never flushed
  device.DrainBuffers();
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kUnflushedAtClose), 1u);
}

// Class 1a: FlushLine on a line whose content already equals the durable
// image persists nothing.
TEST(PmCheck, RedundantFlushOfCleanLine) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  Store(device, 64, 0xA1);
  device.FlushLine(ctx, device.base() + 64);
  device.Fence(ctx);
  EXPECT_EQ(Report(device).total(), 0u) << "store+flush+fence is the clean pattern";
  // No store since the line went durable: this flush is pure waste.
  device.FlushLine(ctx, device.base() + 64);
  device.Fence(ctx);
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kRedundantFlush), 1u);
  EXPECT_EQ(report.total(), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].cls, PmCheckClass::kRedundantFlush);
  EXPECT_STREQ(report.diagnostics[0].detail, "flush_of_clean_line");
  EXPECT_EQ(report.diagnostics[0].line, 64u);
}

// Class 1b: re-flush of an already-pending line with unchanged content.
TEST(PmCheck, RedundantFlushOfPendingLine) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  Store(device, 128, 0xB2);
  device.FlushLine(ctx, device.base() + 128);
  device.FlushLine(ctx, device.base() + 128);  // nothing changed in between
  device.Fence(ctx);
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kRedundantFlush), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_STREQ(report.diagnostics[0].detail, "reflush_of_pending_line_with_unchanged_content");
}

// Re-flush after a re-dirty is the *correct* fix for dirty-at-fence: neither
// class 1 nor class 3 may fire.
TEST(PmCheck, ReflushAfterRedirtyIsClean) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  Store(device, 192, 0xC3);
  device.FlushLine(ctx, device.base() + 192);
  Store(device, 192, 0xC4);                    // re-dirty
  device.FlushLine(ctx, device.base() + 192);  // re-flush covers it
  device.Fence(ctx);
  EXPECT_EQ(Report(device).total(), 0u);
}

// Class 2: a fence with zero pending lines orders nothing.
TEST(PmCheck, UselessFence) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  device.Fence(ctx);
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kUselessFence), 1u);
  EXPECT_EQ(report.total(), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].cls, PmCheckClass::kUselessFence);
  EXPECT_STREQ(report.diagnostics[0].detail, "fence_with_no_pending_lines");
  EXPECT_EQ(report.stat("fence_epochs"), 1u);
}

// Class 3: line re-dirtied between its flush and the fence — on real
// hardware the clwb captured the old content (torn-write risk).
TEST(PmCheck, DirtyAtFence) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  Store(device, 256, 0xD4);
  device.FlushLine(ctx, device.base() + 256);
  Store(device, 256, 0xD5);  // re-dirty, no re-flush
  device.Fence(ctx);
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kDirtyAtFence), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].cls, PmCheckClass::kDirtyAtFence);
  EXPECT_STREQ(report.diagnostics[0].detail, "line_redirtied_between_flush_and_fence");
  EXPECT_EQ(report.diagnostics[0].line, 256u);
}

// Class 4: lines still dirty when the pool closes, in both flavors.
TEST(PmCheck, UnflushedAtClose) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  Store(device, 64, 0xE5);   // stored, never flushed
  Store(device, 320, 0xE6);  // stored + flushed, never fenced
  device.FlushLine(ctx, device.base() + 320);
  device.DrainBuffers();
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kUnflushedAtClose), 2u);
  ASSERT_EQ(report.diagnostics.size(), 2u);
  // The close scan walks the pool in address order.
  EXPECT_EQ(report.diagnostics[0].line, 64u);
  EXPECT_STREQ(report.diagnostics[0].detail, "line_stored_but_never_flushed_at_close");
  EXPECT_EQ(report.diagnostics[1].line, 320u);
  EXPECT_STREQ(report.diagnostics[1].detail, "line_flushed_but_never_fenced_at_close");
  // A second close must not re-report the same lines.
  device.DrainBuffers();
  EXPECT_EQ(Count(Report(device), PmCheckClass::kUnflushedAtClose), 2u);
}

// Class 4, crash flavor: a crash nobody scheduled reports in-flight lines...
TEST(PmCheck, UnflushedAtUnplannedCrash) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  Store(device, 448, 0xF7);
  device.FlushLine(ctx, device.base() + 448);  // flushed, never fenced
  device.Crash();
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kUnflushedAtClose), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_STREQ(report.diagnostics[0].detail, "line_flushed_but_never_fenced_at_crash");
  // ...and the crash resets line state: the restored pool is all-clean.
  device.DrainBuffers();
  EXPECT_EQ(Report(device).total(), 1u);
}

// ...but an injector-scheduled crash is the harness doing its job: in-flight
// state at the injected fence is expected, not a bug.
TEST(PmCheck, InjectedCrashIsNotAViolation) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  CrashInjector injector;
  device.SetCrashInjector(&injector);
  injector.Arm(1);
  Store(device, 512, 0xA8);
  device.FlushLine(ctx, device.base() + 512);
  EXPECT_THROW(device.Fence(ctx), CrashPointReached);
  device.Crash();
  device.SetCrashInjector(nullptr);
  EXPECT_EQ(Report(device).total(), 0u);
}

// Class 5: reading a line another context flushed but has not fenced durable.
TEST(PmCheck, ReadBeforeDurableAcrossContexts) {
  PmDevice device{CheckedConfig()};
  ThreadContext writer(device, 0, 0);
  Store(device, 576, 0xB9);
  device.FlushLine(writer, device.base() + 576);
  // The owner may read its own pending line (it knows what it wrote).
  device.ReadPm(writer, device.base() + 576, 8);
  EXPECT_EQ(Report(device).total(), 0u);
  ThreadContext reader(device, 1, 1);
  device.ReadPm(reader, device.base() + 576, 8);
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kReadBeforeDurable), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].cls, PmCheckClass::kReadBeforeDurable);
  EXPECT_STREQ(report.diagnostics[0].detail, "read_of_line_flush_pending_in_other_context");
  EXPECT_EQ(report.diagnostics[0].line, 576u);
  EXPECT_EQ(report.diagnostics[0].worker, 1);  // the reader is attributed
  // Once the writer fences, the same read is clean.
  device.Fence(writer);
  device.ReadPm(reader, device.base() + 576, 8);
  EXPECT_EQ(Report(device).total(), 1u);
}

// PmCheckExpect turns an intentional violation into a suppressed count, in
// scope only.
TEST(PmCheck, ExpectSuppressesInScopeOnly) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  {
    PmCheckExpect expect(PmCheckClass::kUselessFence);
    device.Fence(ctx);
  }
  PmCheckReport report = Report(device);
  EXPECT_EQ(report.total(), 0u);
  EXPECT_EQ(report.suppressed[static_cast<size_t>(PmCheckClass::kUselessFence)], 1u);
  // The suppression is class-scoped: a different class still reports.
  {
    PmCheckExpect expect(PmCheckClass::kRedundantFlush);
    device.Fence(ctx);
  }
  EXPECT_EQ(Count(Report(device), PmCheckClass::kUselessFence), 1u);
  // And it ends with the scope.
  device.Fence(ctx);
  EXPECT_EQ(Count(Report(device), PmCheckClass::kUselessFence), 2u);
}

// Diagnostics carry the recent-event ring and fence epochs for attribution.
TEST(PmCheck, DiagnosticsCarryRecentEvents) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  for (int i = 0; i < 3; i++) {
    Store(device, 64 + static_cast<uintptr_t>(i) * 64, 0xC0 + static_cast<uint64_t>(i));
    device.FlushLine(ctx, device.base() + 64 + static_cast<uintptr_t>(i) * 64);
    device.Fence(ctx);
  }
  device.Fence(ctx);  // the violation
  PmCheckReport report = Report(device);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.stat("fence_epochs"), 4u);
  EXPECT_EQ(report.diagnostics[0].fence_epoch, 4u);
  const auto& recent = report.diagnostics[0].recent;
  ASSERT_GE(recent.size(), 2u);
  // The last recorded event is the useless fence itself (0 committed lines);
  // before it, the previous cycle's fence committed one line.
  EXPECT_EQ(recent.back().kind, PmCheckEvent::Kind::kFence);
  EXPECT_EQ(recent.back().detail, 0u);
  EXPECT_EQ(recent[recent.size() - 2].kind, PmCheckEvent::Kind::kFence);
  EXPECT_EQ(recent[recent.size() - 2].detail, 1u);
}

}  // namespace
}  // namespace cclbt::pmsim

namespace cclbt::bench {
namespace {

// The shipped CCL-BTree must be pmcheck-clean on a fig10-micro style
// workload: warm inserts + measured upserts, background GC on (the default).
TEST(PmCheck, CleanRunOnCclbtreeFig10Micro) {
  RunConfig config;
  config.threads = 4;
  config.warm_keys = 15'000;
  config.ops = 15'000;
  config.op = OpType::kUpdate;
  RunResult result =
      RunIndexWorkload("cclbtree", config, {}, {.pool_bytes = 1ULL << 30, .pmcheck = true});
  ASSERT_TRUE(result.pmcheck.enabled);
  EXPECT_EQ(result.pmcheck.total(), 0u) << "first diagnostic: "
      << (result.pmcheck.diagnostics.empty()
              ? "(none materialized)"
              : result.pmcheck.diagnostics[0].detail);
  EXPECT_GT(result.pmcheck.stat("fence_epochs"), 0u);
}

// Recovery must be pmcheck- and lockcheck-clean too, and so must the tree
// it leaves: a second recovery that does not move the timestamp floor skips
// its persist, and the recovery's copy appends to the GC's WAL, from the
// boot context, where the GC round after the recovered tree's upserts
// appends again.
TEST(PmCheck, CleanRecoveryOfCclbtree) {
  kvindex::RuntimeOptions options;
  options.device.pool_bytes = 256 << 20;
  options.device.num_sockets = 2;
  options.device.dimms_per_socket = 2;
  options.device.pmcheck = true;
  options.device.lockcheck = true;
  kvindex::Runtime rt(options);
  core::TreeOptions tree_options;
  tree_options.gc_quantum_ops = 0;
  auto upsert = [&rt](core::CclBTree& tree, uint64_t seed) {
    pmsim::ThreadContext w0(rt.device(), 0, 0);
    pmsim::ThreadContext w1(rt.device(), 1, 1);
    Rng rng(seed);
    for (int i = 0; i < 20000; i++) {
      pmsim::ThreadContext::SetCurrent(i % 2 == 0 ? &w0 : &w1);
      tree.Upsert(Mix64(rng.NextBounded(5000) + 1) | 1, rng.Next() | 1);
    }
  };
  {
    core::CclBTree tree(rt, tree_options);
    upsert(tree, 91);
  }
  for (int round = 0; round < 2; round++) {
    rt.device().Crash();
    ASSERT_TRUE(rt.Reopen());
    core::CclBTree tree(rt, tree_options, kvindex::Lifecycle::kAttach);
    ASSERT_TRUE(tree.Recover(rt, /*recovery_threads=*/4));
    if (round == 1) {
      upsert(tree, 92);
      // Each tick runs one span of the round, on the tree's GC context.
      for (int tick = 0; tick < 100 && tree.gc_rounds() == 0; tick++) {
        ASSERT_TRUE(tree.GcTick());
      }
      EXPECT_EQ(tree.gc_rounds(), 1u);
    }
  }
  pmsim::PmCheckReport report = rt.device().pmcheck()->Snapshot();
  EXPECT_EQ(report.total(), 0u) << "first diagnostic: "
      << (report.diagnostics.empty() ? "(none materialized)" : report.diagnostics[0].detail);
  pmsim::LockCheckReport locks = rt.device().lockcheck()->Snapshot();
  EXPECT_EQ(locks.total(), 0u) << "first diagnostic: "
      << (locks.diagnostics.empty() ? "(none materialized)" : locks.diagnostics[0].detail);
  EXPECT_EQ(locks.total_info(), 0u);
}

// The same for CCL-Hash over a mixed workload on few buckets: a batch
// commits each bucket of its chain once, so no header line is re-flushed
// unchanged, and recovery replays without a redundant flush.
TEST(PmCheck, CleanRecoveryOfCclhash) {
  kvindex::RuntimeOptions options;
  options.device.pool_bytes = 256 << 20;
  options.device.num_sockets = 2;
  options.device.dimms_per_socket = 2;
  options.device.pmcheck = true;
  kvindex::Runtime rt(options);
  constexpr size_t kBuckets = 64;
  {
    core::CclHashTable table(rt, core::TreeOptions{}, kBuckets);
    pmsim::ThreadContext ctx(rt.device(), 0, 0);
    Rng rng(93);
    for (int i = 0; i < 6000; i++) {
      uint64_t key = Mix64(rng.NextBounded(2000) + 1) | 1;
      if (rng.NextBounded(10) < 8) {
        table.Upsert(key, rng.Next() | 1);
      } else {
        table.Remove(key);
      }
    }
  }
  pmsim::PmCheckReport before_crash = rt.device().pmcheck()->Snapshot();
  EXPECT_EQ(before_crash.total(), 0u) << "first diagnostic: "
      << (before_crash.diagnostics.empty() ? "(none materialized)"
                                           : before_crash.diagnostics[0].detail);
  for (int round = 0; round < 2; round++) {
    rt.device().Crash();
    ASSERT_TRUE(rt.Reopen());
    core::CclHashTable table(rt, core::TreeOptions{}, kBuckets, kvindex::Lifecycle::kAttach);
    ASSERT_TRUE(table.Recover(rt, /*recovery_threads=*/4));
  }
  pmsim::PmCheckReport report = rt.device().pmcheck()->Snapshot();
  EXPECT_EQ(report.total(), 0u) << "first diagnostic: "
      << (report.diagnostics.empty() ? "(none materialized)" : report.diagnostics[0].detail);
}

}  // namespace
}  // namespace cclbt::bench
