// GC scheduling (DESIGN.md §10): deterministic virtual-time GC runs rounds at
// reproducible points via the cooperative quantum and the explicit GcTick()
// API, and never starts before recovery is settled. CooperativeGcOnRealThreads
// is the real-concurrency stress of the one scheduler (tools/ci.sh includes
// this binary in the sanitizer presets).
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ccl_btree.h"
#include "src/kvindex/runtime.h"

namespace cclbt::core {
namespace {

using kvindex::Runtime;
using kvindex::RuntimeOptions;

std::unique_ptr<Runtime> MakeRuntime(size_t pool_bytes = 128 << 20) {
  RuntimeOptions options;
  options.device.pool_bytes = pool_bytes;
  return std::make_unique<Runtime>(options);
}

// Aggressive trigger so small tests reach GC quickly.
TreeOptions GcOptions() {
  TreeOptions options;
  options.th_log_pct = 5;
  options.gc_quantum_ops = 16;
  return options;
}

void InsertMany(CclBTree& tree, uint64_t count, uint64_t seed) {
  for (uint64_t i = 0; i < count; i++) {
    tree.Upsert(Mix64(seed + i) | 1, i + 1);
  }
}

TEST(GcSchedulingTest, DeterministicQuantumRunsGcAtTrigger) {
  auto rt = MakeRuntime();
  TreeOptions options = GcOptions();  // the cooperative quantum on
  CclBTree tree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  InsertMany(tree, 4000, /*seed=*/1);
  EXPECT_GT(tree.gc_rounds(), 0u) << "cooperative quantum never ran a round";
  // The round ran on the tree-owned GC context, paced by the worker's
  // clock — not at time zero.
  EXPECT_GT(tree.gc_vtime_ns(), 0u);
}

// A locality-aware round runs one span per tick while foreground upserts go
// on between ticks. A tick runs its span exactly when the GC context is not
// busy, that is when its clock is at most W - S (W the ticking worker's
// clock, S one span's media service time), and starts it at W - S, so the
// span never starts in the worker's future; it ends within S of W, later
// than W only by the wait behind the worker's own writes to its DIMM. Every
// KV, old or written during the round, stays readable.
TEST(GcSchedulingTest, RoundSpansTicksWhileUpsertsContinue) {
  auto rt = MakeRuntime();
  TreeOptions options = GcOptions();
  options.gc_quantum_ops = 0;  // spans only via the ticks below
  CclBTree tree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  constexpr uint64_t kKeys = 6000;
  std::vector<uint64_t> expected(kKeys);
  for (uint64_t i = 0; i < kKeys; i++) {
    expected[i] = i + 1;
    tree.Upsert(Mix64(i) | 1, expected[i]);
  }
  ASSERT_TRUE(tree.GcTriggerReached());
  const uint64_t span_ns = rt->device().MediaWriteServiceNs(kGcSpanEntries * sizeof(LogEntry));
  Rng rng(6);
  int spans = 0;
  for (int step = 0; tree.gc_rounds() == 0; step++) {
    ASSERT_LT(step, 10000) << "the round never ended";
    for (int op = 0; op < 16; op++) {
      const uint64_t i = rng.NextBounded(kKeys);
      expected[i] += kKeys;
      tree.Upsert(Mix64(i) | 1, expected[i]);
    }
    const uint64_t idle_since = tree.gc_vtime_ns();
    const bool ran = tree.GcTick();
    EXPECT_EQ(ran, idle_since + span_ns <= ctx.now_ns()) << "step " << step;
    if (ran) {
      spans++;
      EXPECT_LE(tree.gc_vtime_ns(), ctx.now_ns() + span_ns) << "span " << spans;
    }
  }
  EXPECT_GE(spans, 3) << "the round did not span several ticks";
  EXPECT_EQ(tree.gc_rounds(), 1u);
  EXPECT_TRUE(tree.CheckInvariants());
  for (uint64_t i = 0; i < kKeys; i++) {
    uint64_t value = 0;
    ASSERT_TRUE(tree.Lookup(Mix64(i) | 1, &value)) << "key #" << i;
    EXPECT_EQ(value, expected[i]);
  }
}

TEST(GcSchedulingTest, DeterministicGcIsReproducible) {
  uint64_t rounds[2];
  uint64_t live_bytes[2];
  uint64_t gc_vtime[2];
  for (int run = 0; run < 2; run++) {
    auto rt = MakeRuntime();
    CclBTree tree(*rt, GcOptions());
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    InsertMany(tree, 4000, /*seed=*/1);
    rounds[run] = tree.gc_rounds();
    live_bytes[run] = tree.log_live_bytes();
    gc_vtime[run] = tree.gc_vtime_ns();
  }
  EXPECT_GT(rounds[0], 0u);
  EXPECT_EQ(rounds[0], rounds[1]);
  EXPECT_EQ(live_bytes[0], live_bytes[1]);
  EXPECT_EQ(gc_vtime[0], gc_vtime[1]);
}

TEST(GcSchedulingTest, ManualGcTickHonorsTriggerAndHysteresis) {
  auto rt = MakeRuntime();
  TreeOptions options = GcOptions();
  options.gc_quantum_ops = 0;  // rounds only via explicit ticks
  CclBTree tree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  InsertMany(tree, 2000, /*seed=*/2);
  EXPECT_EQ(tree.gc_rounds(), 0u);
  ASSERT_TRUE(tree.GcTriggerReached());
  EXPECT_TRUE(tree.GcTick());
  EXPECT_EQ(tree.gc_rounds(), 1u);
  // Immediately after a round the hysteresis floor holds the trigger down.
  EXPECT_FALSE(tree.GcTick());
  EXPECT_EQ(tree.gc_rounds(), 1u);
}

TEST(GcSchedulingTest, GcTickIsNoOpInGcModeNone) {
  auto rt = MakeRuntime();
  TreeOptions options = GcOptions();
  options.gc_mode = GcMode::kNone;
  CclBTree tree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  InsertMany(tree, 500, /*seed=*/3);
  EXPECT_FALSE(tree.GcTick());
  EXPECT_EQ(tree.gc_rounds(), 0u);
  EXPECT_EQ(tree.gc_vtime_ns(), 0u);
}

// Naive GC under deterministic scheduling is stop-the-world: after a round,
// every live worker clock has been raised to the barrier's end.
TEST(GcSchedulingTest, NaiveGcRaisesWorkerClocksToBarrierEnd) {
  auto rt = MakeRuntime();
  TreeOptions options = GcOptions();
  options.gc_mode = GcMode::kNaive;
  options.gc_quantum_ops = 0;
  CclBTree tree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  InsertMany(tree, 2000, /*seed=*/4);
  ASSERT_TRUE(tree.GcTick());
  EXPECT_GE(ctx.now_ns(), tree.gc_vtime_ns());
}

// Lifecycle audit: a kAttach instance whose Recover() fails (pool was never
// formatted) must destruct cleanly with background GC configured — no GC
// state may exist before recovered_ is settled. Run under ASan/TSan via the
// sanitizer presets.
TEST(GcSchedulingTest, FailedRecoveryDestructsCleanly) {
  auto rt = MakeRuntime();
  auto tree = std::make_unique<CclBTree>(*rt, GcOptions(), kvindex::Lifecycle::kAttach);
  EXPECT_FALSE(tree->Recover(*rt, /*recovery_threads=*/2));
  EXPECT_FALSE(tree->GcTick());  // no GC context before recovery settles
  tree.reset();
}

TEST(GcSchedulingTest, RecoverOnCreateInstanceFails) {
  auto rt = MakeRuntime();
  CclBTree tree(*rt, GcOptions());
  EXPECT_FALSE(tree.Recover(*rt, 1));
}

// Real-concurrency stress of the one GC scheduler: OS threads, each with its
// own pmsim context, upsert disjoint keys while the cooperative quantum runs
// GC rounds from whichever thread's upsert crosses it (gc_tick_mu_ is
// try-locked, so concurrent ticks lose cheaply). Runs instrumented under the
// TSan and ASan presets.
TEST(GcSchedulingTest, CooperativeGcOnRealThreads) {
  constexpr int kThreads = 4;
  constexpr uint64_t kKeysPerThread = 3000;
  auto rt = MakeRuntime();
  CclBTree tree(*rt, GcOptions());
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&rt, &tree, t] {
      pmsim::ThreadContext ctx(rt->device(), /*socket=*/t % 2, /*worker_id=*/t);
      for (uint64_t i = 0; i < kKeysPerThread; i++) {
        uint64_t n = static_cast<uint64_t>(t) * kKeysPerThread + i;
        tree.Upsert(Mix64(n) | 1, n + 1);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_GT(tree.gc_rounds(), 0u) << "the quantum never ran a round under real threads";
  EXPECT_TRUE(tree.CheckInvariants());
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (uint64_t n = 0; n < kThreads * kKeysPerThread; n += 97) {
    uint64_t value = 0;
    ASSERT_TRUE(tree.Lookup(Mix64(n) | 1, &value)) << "key #" << n;
    EXPECT_EQ(value, n + 1);
  }
}

}  // namespace
}  // namespace cclbt::core
