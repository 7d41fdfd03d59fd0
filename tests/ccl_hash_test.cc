// Tests for CCL-Hash (the paper's §6 hash-table extension): functional
// model-check, overflow chaining, tombstones, range scans, crash recovery
// (also from inside Recover()), GC, and the XBI-reduction property vs an
// unbuffered persistent hash.
#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ccl_hash.h"
#include "src/pmsim/crash_injector.h"
#include "tests/crash_util.h"
#include "tests/gc_copy_util.h"

namespace cclbt::core {
namespace {

std::unique_ptr<kvindex::Runtime> MakeRuntime(
    size_t pool = 512 << 20, pmsim::MediaBackend backend = pmsim::MediaBackend::kAuto) {
  kvindex::RuntimeOptions options;
  options.device.pool_bytes = pool;
  options.device.backend = backend;
  return std::make_unique<kvindex::Runtime>(options);
}

constexpr size_t kBuckets = 1 << 12;

// Crash + reopen + attach + Recover through the kvindex lifecycle.
std::unique_ptr<CclHashTable> CrashAndRecover(kvindex::Runtime& rt, bool torn = false,
                                              uint64_t torn_seed = 0) {
  testutil::CrashRestart(rt, torn, torn_seed);
  auto table =
      std::make_unique<CclHashTable>(rt, TreeOptions{}, kBuckets, kvindex::Lifecycle::kAttach);
  EXPECT_TRUE(table->Recover(rt, /*recovery_threads=*/1));
  return table;
}

TEST(CclHash, InsertLookupRemove) {
  auto rt = MakeRuntime();
  CclHashTable table(*rt, TreeOptions{}, kBuckets);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  table.Upsert(42, 4200);
  uint64_t value = 0;
  EXPECT_TRUE(table.Lookup(42, &value));
  EXPECT_EQ(value, 4200u);
  EXPECT_FALSE(table.Lookup(43, &value));
  table.Remove(42);
  EXPECT_FALSE(table.Lookup(42, &value));
  table.Upsert(42, 77);
  EXPECT_TRUE(table.Lookup(42, &value));
  EXPECT_EQ(value, 77u);
}

TEST(CclHash, RandomModelCheck) {
  auto rt = MakeRuntime();
  CclHashTable table(*rt, TreeOptions{}, kBuckets);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  std::map<uint64_t, uint64_t> model;
  Rng rng(71);
  for (int i = 0; i < 40000; i++) {
    uint64_t key = rng.NextBounded(8000) + 1;
    if (rng.NextBounded(10) < 8) {
      uint64_t value = rng.Next() | 1;
      table.Upsert(key, value);
      model[key] = value;
    } else {
      table.Remove(key);
      model.erase(key);
    }
  }
  for (uint64_t key = 1; key <= 8000; key++) {
    uint64_t value = 0;
    bool found = table.Lookup(key, &value);
    auto it = model.find(key);
    ASSERT_EQ(found, it != model.end()) << "key " << key;
    if (found) {
      EXPECT_EQ(value, it->second);
    }
  }
}

TEST(CclHash, OverflowChainsGrow) {
  auto rt = MakeRuntime();
  // Tiny directory: collisions guaranteed, chains must absorb them.
  CclHashTable table(*rt, TreeOptions{}, 16);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (uint64_t k = 1; k <= 2000; k++) {
    table.Upsert(k, k * 3);
  }
  EXPECT_GT(table.overflow_buckets(), 0u);
  for (uint64_t k = 1; k <= 2000; k += 7) {
    uint64_t value = 0;
    ASSERT_TRUE(table.Lookup(k, &value)) << "key " << k;
    EXPECT_EQ(value, k * 3);
  }
}

TEST(CclHash, CompletedUpsertsSurviveCrash) {
  auto rt = MakeRuntime();
  std::map<uint64_t, uint64_t> model;
  {
    CclHashTable table(*rt, TreeOptions{}, kBuckets);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    Rng rng(73);
    for (int i = 0; i < 30000; i++) {
      uint64_t key = Mix64(rng.NextBounded(6000) + 1) | 1;
      uint64_t value = rng.Next() | 1;
      table.Upsert(key, value);
      model[key] = value;
    }
  }
  auto table = CrashAndRecover(*rt);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (const auto& [key, value] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(table->Lookup(key, &got)) << "lost key " << key;
    EXPECT_EQ(got, value);
  }
}

TEST(CclHash, DeletesSurviveCrash) {
  auto rt = MakeRuntime();
  {
    CclHashTable table(*rt, TreeOptions{}, kBuckets);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 2000; k++) {
      table.Upsert(k, k);
    }
    for (uint64_t k = 1; k <= 2000; k += 2) {
      table.Remove(k);
    }
  }
  auto table = CrashAndRecover(*rt, /*torn=*/true, /*torn_seed=*/99);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (uint64_t k = 1; k <= 2000; k++) {
    uint64_t value = 0;
    ASSERT_EQ(table->Lookup(k, &value), k % 2 == 0) << "key " << k;
  }
}

// A hash keeps no key order, so Scan sweeps every chain; buffered values
// and tombstones must override the chain exactly as Lookup sees them.
TEST(CclHash, ScanReturnsSmallestKeysAtOrAbove) {
  auto rt = MakeRuntime();
  CclHashTable table(*rt, TreeOptions{}, 64);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  std::map<uint64_t, uint64_t> model;
  Rng rng(79);
  for (int i = 0; i < 6000; i++) {
    uint64_t key = rng.NextBounded(3000) + 1;
    if (rng.NextBounded(10) < 8) {
      uint64_t value = rng.Next() | 1;
      table.Upsert(key, value);
      model[key] = value;
    } else {
      table.Remove(key);
      model.erase(key);
    }
  }
  std::vector<kvindex::KeyValue> out(100);
  for (uint64_t start : {0ULL, 1ULL, 1234ULL, 2990ULL, 5000ULL}) {
    size_t n = table.Scan(start, out.size(), out.data());
    auto it = model.lower_bound(start);
    size_t expected = std::min<size_t>(out.size(), std::distance(it, model.end()));
    ASSERT_EQ(n, expected) << "start " << start;
    for (size_t i = 0; i < n; i++, ++it) {
      EXPECT_EQ(out[i].key, it->first) << "start " << start << " i " << i;
      EXPECT_EQ(out[i].value, it->second) << "start " << start << " i " << i;
    }
  }
}

TEST(CclHash, RecoverWithoutTableFails) {
  auto rt = MakeRuntime();
  testutil::CrashRestart(*rt);
  CclHashTable table(*rt, TreeOptions{}, kBuckets, kvindex::Lifecycle::kAttach);
  EXPECT_FALSE(table.Recover(*rt, /*recovery_threads=*/1));
}

// The GC tests below drive GC themselves, so the cooperative quantum is off.
TreeOptions ManualGcOptions() {
  TreeOptions options;
  options.gc_quantum_ops = 0;
  return options;
}

TEST(CclHash, GcReclaimsLogsAndPreservesData) {
  auto rt = MakeRuntime();
  CclHashTable table(*rt, ManualGcOptions(), kBuckets);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (uint64_t k = 1; k <= 30000; k++) {
    table.Upsert(Mix64(k) | 1, k);
  }
  uint64_t before = table.log_live_bytes();
  ASSERT_GT(before, 0u);
  table.RunGcOnce();
  EXPECT_LT(table.log_live_bytes(), before / 2);
  for (uint64_t k = 1; k <= 30000; k += 113) {
    uint64_t value = 0;
    ASSERT_TRUE(table.Lookup(Mix64(k) | 1, &value));
    EXPECT_EQ(value, k);
  }
}

TEST(CclHash, CrashAfterGcLosesNothing) {
  auto rt = MakeRuntime();
  std::map<uint64_t, uint64_t> model;
  {
    CclHashTable table(*rt, TreeOptions{}, kBuckets);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    Rng rng(75);
    for (int i = 0; i < 20000; i++) {
      uint64_t key = Mix64(rng.NextBounded(5000) + 1) | 1;
      uint64_t value = rng.Next() | 1;
      table.Upsert(key, value);
      model[key] = value;
    }
    table.RunGcOnce();
    for (int i = 0; i < 3000; i++) {
      uint64_t key = Mix64(rng.NextBounded(5000) + 1) | 1;
      uint64_t value = rng.Next() | 1;
      table.Upsert(key, value);
      model[key] = value;
    }
  }
  auto table = CrashAndRecover(*rt);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (const auto& [key, value] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(table->Lookup(key, &got)) << "lost key " << key;
    EXPECT_EQ(got, value);
  }
}

// The hash's GC round is the tree's (LocalityAwareGcRound): its I-log copy
// commits each line the copies cover once per span with one fence per span,
// plus the header of the I-log chunk it activates and the free marker of
// each B-log chunk it releases.
TEST(CclHash, GcCopyCommitsEachLineOncePerSpan) {
  auto rt = MakeRuntime();
  CclHashTable table(*rt, ManualGcOptions(), kBuckets);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (uint64_t k = 1; k <= 20000; k++) {
    table.Upsert(Mix64(k) | 1, k);
  }
  const uint64_t blog_chunks = testutil::ActiveLogChunks(table.log_slab()).size();
  auto before = rt->device().stats().Snapshot();
  ASSERT_TRUE(table.RunGcOnce());
  auto delta = rt->device().stats().Snapshot().Delta(before);
  // The I-log holds the copies alone, from the start of a fresh chunk.
  const auto ilog = testutil::ActiveLogChunks(table.log_slab());
  ASSERT_EQ(ilog.size(), 1u);
  const uint64_t copied = table.log_live_bytes() / sizeof(LogEntry);
  ASSERT_GT(copied, 3 * kGcSpanEntries);
  const testutil::GcCommits expected = testutil::ExpectedGcCommits(*ilog[0], copied, blog_chunks);
  EXPECT_EQ(delta.committed_lines_by_component[static_cast<int>(trace::Component::kGc)],
            expected.lines);
  EXPECT_EQ(delta.fences, expected.fences);
}

// A crash at any fence of a GC round, clean or torn, loses nothing: the copy
// is durable before the B-log it duplicates is freed.
TEST(CclHash, CrashInsideGcRoundLosesNothing) {
  constexpr uint64_t kKeys = 8000;
  // Runs the workload, then one GC round with `injector` armed at `target`
  // (0: count only); returns the fences the round ran.
  auto run = [](kvindex::Runtime& rt, uint64_t target, bool torn) {
    pmsim::CrashInjector injector;
    CclHashTable table(rt, TreeOptions{}, kBuckets);
    pmsim::ThreadContext ctx(rt.device(), 0, 0);
    for (uint64_t k = 1; k <= kKeys; k++) {
      table.Upsert(Mix64(k) | 1, k);
    }
    rt.device().SetCrashInjector(&injector);
    injector.Arm(target,
                 torn ? pmsim::CrashInjector::Mode::kTorn : pmsim::CrashInjector::Mode::kClean,
                 target);
    bool fired = false;
    try {
      table.RunGcOnce();
    } catch (const pmsim::CrashPointReached&) {
      fired = true;
    }
    rt.device().SetCrashInjector(nullptr);
    EXPECT_EQ(fired, target != 0);
    return injector.fences_observed();
  };

  uint64_t fences = 0;
  {
    auto rt = MakeRuntime();
    fences = run(*rt, 0, false);
  }
  ASSERT_GE(fences, 5u);
  for (uint64_t target = 1; target <= fences; target++) {
    for (bool torn : {false, true}) {
      SCOPED_TRACE("fence " + std::to_string(target) + (torn ? " torn" : " clean"));
      auto rt = MakeRuntime();
      run(*rt, target, torn);
      auto table = CrashAndRecover(*rt, torn, /*torn_seed=*/target);
      pmsim::ThreadContext ctx(rt->device(), 0, 0);
      for (uint64_t k = 1; k <= kKeys; k++) {
        uint64_t value = 0;
        ASSERT_TRUE(table->Lookup(Mix64(k) | 1, &value)) << "lost key " << k;
        EXPECT_EQ(value, k);
      }
    }
  }
}

// CCL-Hash runs the GC its TreeOptions configure. Without GC no round runs
// and the log only grows; naive GC runs rounds, and a round drains every
// buffer into the chains through FlushAll before it frees the whole log; the
// default locality-aware GC runs rounds under the cooperative quantum, keeps
// the log below what GC-less logging leaves, and a crash loses no
// acknowledged op.
TEST(CclHash, HonoursGcMode) {
  constexpr size_t kFewBuckets = 64;
  std::map<uint64_t, uint64_t> model;  // kTombstone: deleted
  // Runs the workload, checking after each op that the log never shrinks
  // when `log_only_grows`.
  auto run = [&model](CclHashTable& table, bool log_only_grows) {
    model.clear();
    Rng rng(37);
    uint64_t live = 0;
    for (int i = 0; i < 20000; i++) {
      uint64_t key = Mix64(rng.NextBounded(3000) + 1) | 1;
      uint64_t value = rng.NextBounded(10) == 0 ? kTombstone : rng.Next() | 1;
      table.Upsert(key, value);
      model[key] = value;
      if (log_only_grows) {
        ASSERT_GE(table.log_live_bytes(), live) << "op " << i;
        live = table.log_live_bytes();
      }
    }
  };
  auto expect_model_after_crash = [&model](kvindex::Runtime& rt, const TreeOptions& options) {
    testutil::CrashRestart(rt);
    CclHashTable table(rt, options, kFewBuckets, kvindex::Lifecycle::kAttach);
    ASSERT_TRUE(table.Recover(rt, /*recovery_threads=*/1));
    pmsim::ThreadContext ctx(rt.device(), 0, 0);
    for (const auto& [key, value] : model) {
      uint64_t got = 0;
      ASSERT_EQ(table.Lookup(key, &got), value != kTombstone) << "key " << key;
      if (value != kTombstone) {
        ASSERT_EQ(got, value) << "stale value for key " << key;
      }
    }
  };

  uint64_t gcless_log = 0;
  {
    SCOPED_TRACE("none");
    TreeOptions options;
    options.gc_mode = GcMode::kNone;
    auto rt = MakeRuntime(64 << 20);
    CclHashTable table(*rt, options, kFewBuckets);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    run(table, /*log_only_grows=*/true);
    EXPECT_EQ(table.gc_rounds(), 0u);
    EXPECT_FALSE(table.RunGcOnce());
    gcless_log = table.log_live_bytes();
    EXPECT_GT(gcless_log, 0u);
  }
  {
    SCOPED_TRACE("naive");
    TreeOptions options;
    options.gc_mode = GcMode::kNaive;
    auto rt = MakeRuntime(64 << 20);
    {
      CclHashTable table(*rt, options, kFewBuckets);
      pmsim::ThreadContext ctx(rt->device(), 0, 0);
      run(table, /*log_only_grows=*/false);
      EXPECT_GT(table.gc_rounds(), 0u);
      const uint64_t flushes = table.buffer_flushes();
      ASSERT_TRUE(table.RunGcOnce());
      EXPECT_EQ(table.log_live_bytes(), 0u);
      EXPECT_GT(table.buffer_flushes(), flushes);
    }
    // The log is gone, so every acknowledged op is in the chains.
    expect_model_after_crash(*rt, options);
  }
  {
    SCOPED_TRACE("locality-aware");
    const TreeOptions options;
    auto rt = MakeRuntime(64 << 20);
    {
      CclHashTable table(*rt, options, kFewBuckets);
      pmsim::ThreadContext ctx(rt->device(), 0, 0);
      run(table, /*log_only_grows=*/false);
      EXPECT_GT(table.gc_rounds(), 0u);
      EXPECT_LT(table.log_peak_bytes(), gcless_log);
    }
    expect_model_after_crash(*rt, options);
  }
}

// RECIPE's "writers fix inconsistencies", applied to recovery itself: a
// crash at any fence inside Recover(), clean or torn, recovers again to the
// newest acknowledged value. Worker 0 activates its log chunk first, then
// worker 1 logs k's older value into its own chunk and worker 0 the newer
// one, so the chunk reclaim frees the newer entry before the older.
TEST(CclHash, CrashInsideRecoveryRecoversAgain) {
  constexpr uint64_t kKey = 1001;
  constexpr uint64_t kOther = 7;
  auto crashed_image = [] {
    auto rt = MakeRuntime();
    {
      CclHashTable table(*rt, TreeOptions{}, kBuckets);
      pmsim::ThreadContext w0(rt->device(), 0, 0);
      pmsim::ThreadContext w1(rt->device(), 0, 1);
      pmsim::ThreadContext::SetCurrent(&w0);
      table.Upsert(kOther, 5);
      pmsim::ThreadContext::SetCurrent(&w1);
      table.Upsert(kKey, 10);
      pmsim::ThreadContext::SetCurrent(&w0);
      table.Upsert(kKey, 20);
    }
    testutil::CrashRestart(*rt);
    return rt;
  };

  uint64_t fences = 0;
  {
    auto rt = crashed_image();
    CclHashTable table(*rt, TreeOptions{}, kBuckets, kvindex::Lifecycle::kAttach);
    pmsim::CrashInjector injector;
    rt->device().SetCrashInjector(&injector);
    injector.Arm(/*fence_target=*/0);  // count-only
    ASSERT_TRUE(table.Recover(*rt, /*recovery_threads=*/1));
    rt->device().SetCrashInjector(nullptr);
    fences = injector.fences_observed();
  }
  ASSERT_GE(fences, 3u);  // at least the floor persist and the two chunk frees
  for (uint64_t target = 1; target <= fences; target++) {
    for (bool torn : {false, true}) {
      SCOPED_TRACE("fence " + std::to_string(target) + (torn ? " torn" : " clean"));
      auto rt = crashed_image();
      {
        CclHashTable table(*rt, TreeOptions{}, kBuckets, kvindex::Lifecycle::kAttach);
        pmsim::CrashInjector injector;
        rt->device().SetCrashInjector(&injector);
        injector.Arm(target);
        EXPECT_THROW(table.Recover(*rt, /*recovery_threads=*/1), pmsim::CrashPointReached);
        rt->device().SetCrashInjector(nullptr);
      }
      auto table = CrashAndRecover(*rt, torn, /*torn_seed=*/target);
      pmsim::ThreadContext ctx(rt->device(), 0, 0);
      uint64_t value = 0;
      ASSERT_TRUE(table->Lookup(kKey, &value));
      EXPECT_EQ(value, 20u);
      ASSERT_TRUE(table->Lookup(kOther, &value));
      EXPECT_EQ(value, 5u);
    }
  }
}

// A crash inside a GC round's log release must not resurrect a removed key,
// on either CclIndex (N_batch = 2; the table has one bucket). Worker 1 logs
// K's value; worker 0 removes K in its buffer slot (logged) and then two
// absent keys, the second a trigger write whose batch holds only tombstones
// of keys absent from the leaf or chain. The round frees worker 0's B-log
// before worker 1's, so a crash between the two leaves K's old entry as its
// newest in the log: the trigger write's commit must carry a timestamp that
// outranks it. Crashed at every fence of the round, clean and torn.
TEST(CclHash, CrashInsideLogReleaseKeepsRemovedKeyAbsent) {
  constexpr uint64_t kKey = 1001;
  TreeOptions options;
  options.nbatch = 2;
  options.gc_quantum_ops = 0;
  for (const bool hash : {false, true}) {
    SCOPED_TRACE(hash ? "CCL-Hash" : "CCL-BTree");
    auto make = [&](kvindex::Runtime& rt,
                    kvindex::Lifecycle lifecycle) -> std::unique_ptr<CclIndex> {
      if (hash) {
        return std::make_unique<CclHashTable>(rt, options, /*num_buckets=*/1, lifecycle);
      }
      return std::make_unique<CclBTree>(rt, options, lifecycle);
    };
    // Runs the ops, then one GC round with a crash armed at `target` (0:
    // count only); returns the fences the round ran.
    auto run = [&](kvindex::Runtime& rt, uint64_t target, bool torn) {
      auto index = make(rt, kvindex::Lifecycle::kCreate);
      pmsim::ThreadContext w0(rt.device(), 0, 0);
      pmsim::ThreadContext w1(rt.device(), 0, 1);
      pmsim::ThreadContext::SetCurrent(&w1);
      index->Upsert(kKey, 10);
      pmsim::ThreadContext::SetCurrent(&w0);
      index->Remove(kKey);
      index->Remove(7);
      index->Remove(9);  // the trigger write
      pmsim::CrashInjector injector;
      rt.device().SetCrashInjector(&injector);
      injector.Arm(target,
                   torn ? pmsim::CrashInjector::Mode::kTorn : pmsim::CrashInjector::Mode::kClean,
                   target);
      bool fired = false;
      try {
        index->RunGcOnce();
      } catch (const pmsim::CrashPointReached&) {
        fired = true;
      }
      rt.device().SetCrashInjector(nullptr);
      EXPECT_EQ(fired, target != 0);
      return injector.fences_observed();
    };

    uint64_t fences = 0;
    {
      auto rt = MakeRuntime(32 << 20);
      fences = run(*rt, 0, false);
    }
    ASSERT_GE(fences, 2u);  // one chunk release per worker
    for (uint64_t target = 1; target <= fences; target++) {
      for (bool torn : {false, true}) {
        SCOPED_TRACE("fence " + std::to_string(target) + (torn ? " torn" : " clean"));
        auto rt = MakeRuntime(32 << 20);
        run(*rt, target, torn);
        testutil::CrashRestart(*rt, torn, /*torn_seed=*/target);
        auto index = make(*rt, kvindex::Lifecycle::kAttach);
        ASSERT_TRUE(index->Recover(*rt, /*recovery_threads=*/1));
        pmsim::ThreadContext ctx(rt->device(), 0, 0);
        uint64_t value = 0;
        EXPECT_FALSE(index->Lookup(kKey, &value)) << "resurrected value " << value;
      }
    }
  }
}

// The tree's overflow test for the hash: an image written with nbatch 4 and
// recovered with nbatch 1 sends each full node's staged KV and next entries
// to its chain in one batch that keeps every timestamp, deletes included. A
// crash at any fence of that recovery, clean or torn, with one or four
// workers, recovers again to every acknowledged upsert and delete.
TEST(CclHash, OverflowingNodesRecoverAgainAfterCrashAtEveryFence) {
  constexpr size_t kFewBuckets = 16;
  TreeOptions written;
  written.nbatch = 4;
  TreeOptions options;
  options.nbatch = 1;
  std::map<uint64_t, uint64_t> model;  // kTombstone: deleted
  auto crashed_image = [&written, &model] {
    auto rt = MakeRuntime(32 << 20);
    {
      CclHashTable table(*rt, written, kFewBuckets);
      pmsim::ThreadContext ctx(rt->device(), 0, 0);
      Rng rng(29);
      for (int i = 0; i < 1200; i++) {
        uint64_t key = Mix64(rng.NextBounded(300) + 1) | 1;
        uint64_t value = rng.NextBounded(4) == 0 ? kTombstone : rng.Next() | 1;
        table.Upsert(key, value);
        model[key] = value;
      }
    }
    testutil::CrashRestart(*rt);
    return rt;
  };
  auto expect_model = [&model](kvindex::Runtime& rt, CclHashTable& table) {
    pmsim::ThreadContext ctx(rt.device(), 0, 0);
    for (const auto& [key, value] : model) {
      uint64_t got = 0;
      ASSERT_EQ(table.Lookup(key, &got), value != kTombstone) << "key " << key;
      if (value != kTombstone) {
        ASSERT_EQ(got, value) << "stale value for key " << key;
      }
    }
  };

  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " recovery threads");
    uint64_t fences = 0;
    {
      auto rt = crashed_image();
      CclHashTable table(*rt, options, kFewBuckets, kvindex::Lifecycle::kAttach);
      pmsim::CrashInjector injector;
      rt->device().SetCrashInjector(&injector);
      injector.Arm(/*fence_target=*/0);  // count-only
      const auto before = rt->device().stats().Snapshot();
      ASSERT_TRUE(table.Recover(*rt, threads));
      const auto delta = rt->device().stats().Snapshot().Delta(before);
      rt->device().SetCrashInjector(nullptr);
      fences = injector.fences_observed();
      // Overflow reached the chains, and the staged KVs the log.
      EXPECT_GT(delta.committed_lines_by_component[static_cast<int>(trace::Component::kLeaf)], 0u);
      EXPECT_GT(table.log_live_bytes(), 0u);
      expect_model(*rt, table);
    }
    for (uint64_t target = 1; target <= fences; target++) {
      for (bool torn : {false, true}) {
        SCOPED_TRACE("fence " + std::to_string(target) + (torn ? " torn" : " clean"));
        auto rt = crashed_image();
        {
          CclHashTable table(*rt, options, kFewBuckets, kvindex::Lifecycle::kAttach);
          pmsim::CrashInjector injector;
          rt->device().SetCrashInjector(&injector);
          injector.Arm(target);
          EXPECT_THROW(table.Recover(*rt, threads), pmsim::CrashPointReached);
          rt->device().SetCrashInjector(nullptr);
        }
        testutil::CrashRestart(*rt, torn, /*torn_seed=*/target);
        CclHashTable table(*rt, options, kFewBuckets, kvindex::Lifecycle::kAttach);
        ASSERT_TRUE(table.Recover(*rt, threads));
        expect_model(*rt, table);
      }
    }
  }
}

// The unbuffered arm (N_batch = 0): every upsert is a trigger write, a
// bucket batch durable when it returns and never logged. A crash after a run
// has returned, or at any fence of a mixed upsert/delete run over overflowing
// chains, clean or torn, keeps every acknowledged op, and the op in flight is
// applied wholly or not at all.
TEST(CclHash, BaseModeIsDurablePerOperation) {
  constexpr size_t kFewBuckets = 8;
  TreeOptions options;
  options.nbatch = 0;
  std::vector<kvindex::KeyValue> ops;
  Rng rng(31);
  for (int i = 0; i < 400; i++) {
    uint64_t key = Mix64(rng.NextBounded(160) + 1) | 1;
    ops.push_back({key, rng.NextBounded(4) == 0 ? kTombstone : rng.Next() | 1});
  }
  // Runs `ops` on a fresh table with a crash armed at `target` (0: none),
  // and returns how many were acknowledged.
  auto run = [&](kvindex::Runtime& rt, pmsim::CrashInjector& injector, uint64_t target) {
    CclHashTable table(rt, options, kFewBuckets);
    pmsim::ThreadContext ctx(rt.device(), 0, 0);
    rt.device().SetCrashInjector(&injector);
    injector.Arm(target);
    size_t acked = 0;
    try {
      for (; acked < ops.size(); acked++) {
        table.Upsert(ops[acked].key, ops[acked].value);
      }
      EXPECT_EQ(table.log_live_bytes(), 0u);
      EXPECT_GT(table.overflow_buckets(), 0u);
    } catch (const pmsim::CrashPointReached&) {
    }
    rt.device().SetCrashInjector(nullptr);
    return acked;
  };
  // Crashes `rt`, recovers, and checks every key of `ops` against the first
  // `acked` ops; ops[acked], if any, was in flight and may read old or new.
  auto expect_acked = [&](kvindex::Runtime& rt, size_t acked, bool torn, uint64_t torn_seed) {
    std::map<uint64_t, uint64_t> model;  // kTombstone: deleted
    for (size_t i = 0; i < acked; i++) {
      model[ops[i].key] = ops[i].value;
    }
    testutil::CrashRestart(rt, torn, torn_seed);
    CclHashTable table(rt, options, kFewBuckets, kvindex::Lifecycle::kAttach);
    ASSERT_TRUE(table.Recover(rt, /*recovery_threads=*/1));
    pmsim::ThreadContext ctx(rt.device(), 0, 0);
    for (const kvindex::KeyValue& op : ops) {
      uint64_t got = 0;
      const bool found = table.Lookup(op.key, &got);
      const uint64_t value = found ? got : kTombstone;
      const auto it = model.find(op.key);
      const uint64_t acked_value = it != model.end() ? it->second : kTombstone;
      if (acked < ops.size() && op.key == ops[acked].key) {
        ASSERT_TRUE(value == acked_value || value == ops[acked].value) << "key " << op.key;
      } else {
        ASSERT_EQ(value, acked_value) << "key " << op.key;
      }
    }
  };

  uint64_t fences = 0;
  for (bool torn : {false, true}) {
    SCOPED_TRACE(torn ? "completed run, torn" : "completed run, clean");
    auto rt = MakeRuntime(32 << 20);
    pmsim::CrashInjector injector;
    ASSERT_EQ(run(*rt, injector, 0), ops.size());
    fences = injector.fences_observed();
    expect_acked(*rt, ops.size(), torn, /*torn_seed=*/1);
  }
  EXPECT_GE(fences, ops.size());  // each op commits at least once
  for (uint64_t target = 1; target <= fences; target++) {
    for (bool torn : {false, true}) {
      SCOPED_TRACE("fence " + std::to_string(target) + (torn ? " torn" : " clean"));
      auto rt = MakeRuntime(32 << 20);
      pmsim::CrashInjector injector;
      const size_t acked = run(*rt, injector, target);
      ASSERT_LT(acked, ops.size());
      expect_acked(*rt, acked, torn, /*torn_seed=*/target);
    }
  }
}

// Recovery validates what it walks: an overflow chain pointer past the pool
// or to no slot of the overflow slab, a bucket count whose directory does not
// fit in the pool, or a log registry count above its capacity each make
// Recover() return false, and the failed instance destructs cleanly.
TEST(CclHash, DamagedImageFailsRecovery) {
  enum class Damage {
    kChainOutsidePool,
    kChainNotASlot,
    kBucketCount,
    kLogRegistryCount,
    kOverflowChunkRepeat,
    kLogChunkRepeat,
  };
  constexpr size_t kFewBuckets = 8;
  for (Damage damage : {Damage::kChainOutsidePool, Damage::kChainNotASlot, Damage::kBucketCount,
                        Damage::kLogRegistryCount, Damage::kOverflowChunkRepeat,
                        Damage::kLogChunkRepeat}) {
    SCOPED_TRACE(static_cast<int>(damage));
    auto rt = MakeRuntime(32 << 20);
    {
      CclHashTable table(*rt, TreeOptions{}, kFewBuckets);
      pmsim::ThreadContext ctx(rt->device(), 0, 0);
      for (uint64_t k = 1; k <= 400; k++) {
        table.Upsert(k, k);
      }
      ASSERT_GT(table.overflow_buckets(), 0u);
    }
    testutil::CrashRestart(*rt);
    // The table root record's words: magic, bucket count, directory offset,
    // then the overflow slab's and the log slab's registry offsets; a
    // registry is a chunk count followed by the chunks' pool offsets.
    auto* root = static_cast<uint64_t*>(rt->pool().ToAddr(rt->pool().GetAppRoot(1)));
    auto* directory = static_cast<PmLeaf*>(rt->pool().ToAddr(root[2]));
    PmLeaf* chained = std::find_if(directory, directory + kFewBuckets,
                                   [](const PmLeaf& b) { return b.next_offset() != 0; });
    ASSERT_NE(chained, directory + kFewBuckets);
    const uint64_t pool_bytes = rt->device().config().pool_bytes;
    switch (damage) {
      case Damage::kChainOutsidePool:
        chained->meta.store(MakeMeta(chained->bitmap(), pool_bytes + kLeafBytes));
        break;
      case Damage::kChainNotASlot:  // a directory bucket, which no slab owns
        chained->meta.store(MakeMeta(chained->bitmap(), root[2] + kLeafBytes));
        break;
      case Damage::kBucketCount:
        root[1] = pool_bytes / kLeafBytes;
        break;
      case Damage::kLogRegistryCount:
        *static_cast<uint64_t*>(rt->pool().ToAddr(root[4])) = 4097;
        break;
      case Damage::kOverflowChunkRepeat:
      case Damage::kLogChunkRepeat: {  // a slab would hand out the chunk's slots twice
        auto* registry = static_cast<uint64_t*>(
            rt->pool().ToAddr(damage == Damage::kOverflowChunkRepeat ? root[3] : root[4]));
        ASSERT_GE(registry[0], 1u);
        registry[registry[0] + 1] = registry[1];
        registry[0]++;
        break;
      }
    }
    auto table =
        std::make_unique<CclHashTable>(*rt, TreeOptions{}, kFewBuckets, kvindex::Lifecycle::kAttach);
    EXPECT_FALSE(table->Recover(*rt, /*recovery_threads=*/2));
    table.reset();
  }
}

TEST(CclHash, BufferingReducesMediaWrites) {
  // The §6 claim itself: buffered buckets write fewer XPLines than direct
  // bucket writes for the same workload. The claim is about combining in
  // 256 B XPLines, so ADR: eADR scrambles the write order and a 4 KB CXL
  // page changes the granularity.
  auto measure = [](int nbatch) {
    auto rt = MakeRuntime(512 << 20, pmsim::MediaBackend::kAdrOptane);
    TreeOptions options;
    options.nbatch = nbatch;
    CclHashTable table(*rt, options, kBuckets);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    auto before = rt->device().stats().Snapshot();
    Rng rng(77);
    for (int i = 0; i < 50000; i++) {
      table.Upsert(Mix64(rng.NextBounded(30000)) | 1, 1);
    }
    rt->device().DrainBuffers();
    return rt->device().stats().Snapshot().Delta(before).media_write_bytes;
  };
  uint64_t unbuffered = measure(0);
  uint64_t buffered = measure(2);
  EXPECT_LT(buffered, unbuffered * 85 / 100);
}

// CCL-Hash is in neither factory name list, so it repeats the index
// conformance check: bucket writes and the directory format are leaf
// traffic, log appends wal, and at most 1% of media bytes stays
// unattributed.
TEST(CclHash, MediaWritesAreAttributedToComponents) {
  auto rt = MakeRuntime(512 << 20, pmsim::MediaBackend::kAdrOptane);
  CclHashTable table(*rt, TreeOptions{}, kBuckets);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  Rng rng(29);
  for (int i = 0; i < 20000; i++) {
    uint64_t key = Mix64(rng.NextBounded(5000) + 1) | 1;
    if (rng.NextBounded(10) < 8) {
      table.Upsert(key, rng.Next() | 1);
    } else {
      table.Remove(key);
    }
  }
  rt->device().DrainBuffers();
  pmsim::StatsSnapshot stats = rt->device().stats().Snapshot();
  ASSERT_GT(stats.media_write_bytes, 0u);
  EXPECT_LE(stats.media_write_bytes_for(trace::Component::kOther) * 100,
            stats.media_write_bytes)
      << stats.media_write_bytes_for(trace::Component::kOther) << " of "
      << stats.media_write_bytes << " media bytes unattributed";
}

}  // namespace
}  // namespace cclbt::core
