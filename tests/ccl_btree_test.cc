// Tests for CCL-BTree: functional correctness against a model, buffering
// semantics, splits/merges, scans, write amplification behaviour, GC modes,
// crash-consistency and recovery.
#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ccl_btree.h"
#include "tests/crash_util.h"

namespace cclbt::core {
namespace {

using kvindex::KeyValue;
using kvindex::Runtime;
using kvindex::RuntimeOptions;

std::unique_ptr<Runtime> MakeRuntime(size_t pool_bytes = 256 << 20,
                                     pmsim::MediaBackend backend = pmsim::MediaBackend::kAuto) {
  RuntimeOptions options;
  options.device.pool_bytes = pool_bytes;
  options.device.backend = backend;
  options.device.num_sockets = 2;
  options.device.dimms_per_socket = 2;
  return std::make_unique<Runtime>(options);
}

TreeOptions QuietOptions() {
  TreeOptions options;
  options.background_gc = false;  // tests drive GC explicitly
  return options;
}

class CclBTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rt_ = MakeRuntime();
    tree_ = std::make_unique<CclBTree>(*rt_, QuietOptions());
    ctx_ = std::make_unique<pmsim::ThreadContext>(rt_->device(), 0, 0);
  }

  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<CclBTree> tree_;
  std::unique_ptr<pmsim::ThreadContext> ctx_;
};

TEST_F(CclBTreeTest, InsertAndLookup) {
  tree_->Upsert(42, 4242);
  uint64_t value = 0;
  EXPECT_TRUE(tree_->Lookup(42, &value));
  EXPECT_EQ(value, 4242u);
  EXPECT_FALSE(tree_->Lookup(43, &value));
}

TEST_F(CclBTreeTest, UpdateOverwrites) {
  tree_->Upsert(7, 1);
  tree_->Upsert(7, 2);
  uint64_t value = 0;
  EXPECT_TRUE(tree_->Lookup(7, &value));
  EXPECT_EQ(value, 2u);
}

TEST_F(CclBTreeTest, BufferAbsorbsNbatchWritesBeforeFlushing) {
  // With N_batch = 2, the first two inserts stay buffered; the third is the
  // trigger write that flushes all three in one batch (§3.2).
  tree_->Upsert(1, 10);
  tree_->Upsert(2, 20);
  EXPECT_EQ(tree_->buffer_flushes(), 0u);
  tree_->Upsert(3, 30);
  EXPECT_EQ(tree_->buffer_flushes(), 1u);
  for (uint64_t k = 1; k <= 3; k++) {
    uint64_t value = 0;
    EXPECT_TRUE(tree_->Lookup(k, &value));
    EXPECT_EQ(value, k * 10);
  }
}

TEST_F(CclBTreeTest, BufferedReadsAreDramHits) {
  tree_->Upsert(5, 55);
  uint64_t value = 0;
  uint64_t hits_before = tree_->dram_hits();
  EXPECT_TRUE(tree_->Lookup(5, &value));
  EXPECT_EQ(tree_->dram_hits(), hits_before + 1);
}

TEST_F(CclBTreeTest, FlushedEntriesStillServeReadsFromBuffer) {
  // After a flush the slots keep mirroring leaf state as a read cache.
  tree_->Upsert(1, 10);
  tree_->Upsert(2, 20);
  tree_->Upsert(3, 30);  // trigger: all flushed; slot 0 now caches (3,30)
  uint64_t hits_before = tree_->dram_hits();
  uint64_t value = 0;
  EXPECT_TRUE(tree_->Lookup(3, &value));
  EXPECT_EQ(value, 30u);
  EXPECT_GT(tree_->dram_hits(), hits_before);
}

TEST_F(CclBTreeTest, DuplicateInBufferIsUpdatedInPlace) {
  tree_->Upsert(9, 1);
  tree_->Upsert(9, 2);  // same key while buffered: no extra slot
  tree_->Upsert(8, 3);
  EXPECT_EQ(tree_->buffer_flushes(), 0u);  // two distinct keys occupy 2 slots
  uint64_t value = 0;
  EXPECT_TRUE(tree_->Lookup(9, &value));
  EXPECT_EQ(value, 2u);
}

TEST_F(CclBTreeTest, RemoveHidesKey) {
  tree_->Upsert(11, 1);
  tree_->Remove(11);
  uint64_t value = 0;
  EXPECT_FALSE(tree_->Lookup(11, &value));
}

TEST_F(CclBTreeTest, RemoveBeforeFlushAndAfterFlush) {
  for (uint64_t k = 1; k <= 20; k++) {
    tree_->Upsert(k, k);
  }
  tree_->FlushAll();
  tree_->Remove(5);   // tombstone of a flushed key
  tree_->Upsert(100, 100);
  tree_->Remove(100);  // tombstone of a buffered key
  uint64_t value = 0;
  EXPECT_FALSE(tree_->Lookup(5, &value));
  EXPECT_FALSE(tree_->Lookup(100, &value));
  EXPECT_TRUE(tree_->Lookup(6, &value));
}

TEST_F(CclBTreeTest, SplitsPreserveAllKeys) {
  const uint64_t kN = 2000;
  for (uint64_t k = 1; k <= kN; k++) {
    tree_->Upsert(k, k + 1000000);
  }
  EXPECT_GT(tree_->splits(), 0u);
  for (uint64_t k = 1; k <= kN; k++) {
    uint64_t value = 0;
    ASSERT_TRUE(tree_->Lookup(k, &value)) << "key " << k;
    EXPECT_EQ(value, k + 1000000);
  }
  EXPECT_TRUE(tree_->CheckInvariants());
}

TEST_F(CclBTreeTest, RandomKeysMatchModel) {
  std::map<uint64_t, uint64_t> model;
  Rng rng(23);
  for (int i = 0; i < 30000; i++) {
    uint64_t key = rng.NextBounded(8000) + 1;
    if (rng.NextBounded(10) < 8) {
      uint64_t value = rng.Next() | 1;
      tree_->Upsert(key, value);
      model[key] = value;
    } else {
      tree_->Remove(key);
      model.erase(key);
    }
  }
  for (uint64_t key = 1; key <= 8000; key++) {
    uint64_t value = 0;
    bool found = tree_->Lookup(key, &value);
    auto it = model.find(key);
    ASSERT_EQ(found, it != model.end()) << "key " << key;
    if (found) {
      EXPECT_EQ(value, it->second);
    }
  }
  EXPECT_TRUE(tree_->CheckInvariants());
}

TEST_F(CclBTreeTest, ScanReturnsSortedRange) {
  for (uint64_t k = 1; k <= 500; k++) {
    tree_->Upsert(k * 2, k);  // even keys only
  }
  KeyValue out[100];
  size_t n = tree_->Scan(101, 50, out);
  ASSERT_EQ(n, 50u);
  EXPECT_EQ(out[0].key, 102u);
  for (size_t i = 1; i < n; i++) {
    EXPECT_EQ(out[i].key, out[i - 1].key + 2);
  }
}

TEST_F(CclBTreeTest, ScanSeesBufferedUpdatesAndTombstones) {
  for (uint64_t k = 1; k <= 100; k++) {
    tree_->Upsert(k, k);
  }
  tree_->FlushAll();
  tree_->Upsert(50, 5000);  // buffered update
  tree_->Remove(51);        // buffered tombstone
  tree_->Upsert(1000, 1);   // buffered new key at the tail
  KeyValue out[200];
  size_t n = tree_->Scan(45, 200, out);
  std::map<uint64_t, uint64_t> result;
  for (size_t i = 0; i < n; i++) {
    result[out[i].key] = out[i].value;
  }
  EXPECT_EQ(result.at(50), 5000u);
  EXPECT_EQ(result.count(51), 0u);
  EXPECT_EQ(result.at(1000), 1u);
}

TEST_F(CclBTreeTest, ScanStopsAtCount) {
  for (uint64_t k = 1; k <= 1000; k++) {
    tree_->Upsert(k, k);
  }
  KeyValue out[10];
  EXPECT_EQ(tree_->Scan(1, 10, out), 10u);
  EXPECT_EQ(out[9].key, 10u);
}

TEST_F(CclBTreeTest, ScanBeyondEndReturnsShort) {
  for (uint64_t k = 1; k <= 10; k++) {
    tree_->Upsert(k, k);
  }
  KeyValue out[20];
  EXPECT_EQ(tree_->Scan(5, 20, out), 6u);
  EXPECT_EQ(tree_->Scan(1000, 20, out), 0u);
}

TEST_F(CclBTreeTest, DeleteHeavyWorkloadTriggersMerges) {
  const uint64_t kN = 3000;
  for (uint64_t k = 1; k <= kN; k++) {
    tree_->Upsert(k, k);
  }
  tree_->FlushAll();
  // Delete 90% of keys; underutilized leaves must merge left.
  for (uint64_t k = 1; k <= kN; k++) {
    if (k % 10 != 0) {
      tree_->Remove(k);
    }
  }
  tree_->FlushAll();
  EXPECT_GT(tree_->merges(), 0u);
  for (uint64_t k = 1; k <= kN; k++) {
    uint64_t value = 0;
    ASSERT_EQ(tree_->Lookup(k, &value), k % 10 == 0) << "key " << k;
  }
  EXPECT_TRUE(tree_->CheckInvariants());
}

TEST_F(CclBTreeTest, XbiLowerThanUnbufferedBase) {
  // The headline claim: leaf-node centric buffering reduces media writes per
  // user byte vs writing each KV straight to a random leaf (§3.5). ADR only:
  // eADR's random cache evictions scatter the batched leaf writes.
  auto measure = [](bool buffering) {
    auto rt = MakeRuntime(256 << 20, pmsim::MediaBackend::kAdrOptane);
    TreeOptions options;
    options.background_gc = false;
    options.buffering = buffering;
    CclBTree tree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    Rng rng(7);
    const int kOps = 60000;
    for (int i = 0; i < kOps; i++) {
      tree.Upsert(Mix64(rng.NextBounded(40000)) | 1, 1);
      rt->device().stats().AddUserBytes(16);
    }
    rt->device().DrainBuffers();
    return rt->device().stats().Snapshot().XbiAmplification();
  };
  double xbi_base = measure(false);
  double xbi_ccl = measure(true);
  EXPECT_LT(xbi_ccl, xbi_base * 0.75);
}

TEST_F(CclBTreeTest, WriteConservativeLoggingReducesLogBytes) {
  auto measure = [](bool conservative) {
    auto rt = MakeRuntime();
    TreeOptions options;
    options.background_gc = false;
    options.write_conservative_logging = conservative;
    CclBTree tree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 30000; k++) {
      tree.Upsert(Mix64(k) | 1, k);
    }
    return tree.log_live_bytes();
  };
  uint64_t naive_bytes = measure(false);
  uint64_t conservative_bytes = measure(true);
  // Skipping trigger writes removes 1/(N_batch+1) = 1/3 of log entries.
  EXPECT_NEAR(static_cast<double>(conservative_bytes) / static_cast<double>(naive_bytes),
              2.0 / 3.0, 0.05);
}

TEST_F(CclBTreeTest, FootprintTracksGrowth) {
  auto before = tree_->Footprint();
  for (uint64_t k = 1; k <= 50000; k++) {
    tree_->Upsert(Mix64(k) | 1, k);
  }
  auto after = tree_->Footprint();
  EXPECT_GT(after.dram_bytes, before.dram_bytes);
  EXPECT_GT(after.pm_bytes, before.pm_bytes);
  // Leaves alone occupy >= 50000/14 * 256 bytes of PM.
  EXPECT_GT(after.pm_bytes, 50000ull / 14 * 256);
}

// --- GC ------------------------------------------------------------------------

TEST_F(CclBTreeTest, LocalityAwareGcReclaimsLogs) {
  for (uint64_t k = 1; k <= 50000; k++) {
    tree_->Upsert(Mix64(k) | 1, k);
  }
  uint64_t before = tree_->log_live_bytes();
  ASSERT_GT(before, 0u);
  tree_->RunGcOnce();
  // Unflushed buffered KVs were copied to the I-log; everything else died
  // with the B-log.
  EXPECT_LT(tree_->log_live_bytes(), before / 2);
  EXPECT_EQ(tree_->gc_rounds(), 1u);
  // Data integrity after GC.
  for (uint64_t k = 1; k <= 50000; k += 97) {
    uint64_t value = 0;
    ASSERT_TRUE(tree_->Lookup(Mix64(k) | 1, &value));
    EXPECT_EQ(value, k);
  }
}

TEST_F(CclBTreeTest, GcTriggerFiresOnRatio) {
  EXPECT_FALSE(tree_->GcTriggerReached());
  for (uint64_t k = 1; k <= 20000; k++) {
    tree_->Upsert(Mix64(k) | 1, k);
  }
  // Log grows at ~16 B/op while leaves grow at ~256/14 B/key; with default
  // TH_log = 20% the trigger must eventually fire.
  EXPECT_TRUE(tree_->GcTriggerReached());
  tree_->RunGcOnce();
  EXPECT_FALSE(tree_->GcTriggerReached());
}

TEST_F(CclBTreeTest, NaiveGcAlsoPreservesData) {
  auto rt = MakeRuntime();
  TreeOptions options = QuietOptions();
  options.gc_mode = GcMode::kNaive;
  CclBTree tree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (uint64_t k = 1; k <= 20000; k++) {
    tree.Upsert(Mix64(k) | 1, k);
  }
  tree.RunGcOnce();
  EXPECT_EQ(tree.log_live_bytes(), 0u);  // naive GC flushes everything
  for (uint64_t k = 1; k <= 20000; k += 41) {
    uint64_t value = 0;
    ASSERT_TRUE(tree.Lookup(Mix64(k) | 1, &value));
  }
}

TEST_F(CclBTreeTest, GcSurvivesRepeatedRounds) {
  Rng rng(31);
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 10000; i++) {
      tree_->Upsert(Mix64(rng.NextBounded(30000)) | 1, static_cast<uint64_t>(round) + 1);
    }
    tree_->RunGcOnce();
  }
  EXPECT_EQ(tree_->gc_rounds(), 5u);
  EXPECT_TRUE(tree_->CheckInvariants());
}

// --- concurrency ------------------------------------------------------------------

TEST(CclBTreeConcurrency, ParallelDisjointInserts) {
  auto rt = MakeRuntime();
  TreeOptions options;
  options.background_gc = false;
  CclBTree tree(*rt, options);
  const int kThreads = 4;
  const uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&tree, &rt, t] {
      pmsim::ThreadContext ctx(rt->device(), t % 2, t);
      for (uint64_t i = 0; i < kPerThread; i++) {
        uint64_t key = static_cast<uint64_t>(t) * kPerThread + i + 1;
        tree.Upsert(Mix64(key) | 1, key);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (int t = 0; t < kThreads; t++) {
    for (uint64_t i = 0; i < kPerThread; i += 101) {
      uint64_t key = static_cast<uint64_t>(t) * kPerThread + i + 1;
      uint64_t value = 0;
      ASSERT_TRUE(tree.Lookup(Mix64(key) | 1, &value));
      EXPECT_EQ(value, key);
    }
  }
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(CclBTreeConcurrency, ReadersDuringWritesSeeConsistentValues) {
  auto rt = MakeRuntime();
  TreeOptions options;
  options.background_gc = false;
  CclBTree tree(*rt, options);
  {
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 5000; k++) {
      tree.Upsert(k, k * 2);  // invariant: value == 2*key or 3*key
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread writer([&] {
    pmsim::ThreadContext ctx(rt->device(), 0, 1);
    for (uint64_t k = 1; k <= 5000; k++) {
      tree.Upsert(k, k * 3);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; t++) {
    readers.emplace_back([&, t] {
      pmsim::ThreadContext ctx(rt->device(), 1, 2 + t);
      Rng rng(static_cast<uint64_t>(t) + 99);
      while (!stop.load()) {
        uint64_t key = rng.NextBounded(5000) + 1;
        uint64_t value = 0;
        if (!tree.Lookup(key, &value) || (value != key * 2 && value != key * 3)) {
          violations++;
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(violations.load(), 0);
}

TEST(CclBTreeConcurrency, GcConcurrentWithForegroundInserts) {
  auto rt = MakeRuntime();
  TreeOptions options;
  options.background_gc = false;
  CclBTree tree(*rt, options);
  std::atomic<bool> stop{false};
  std::thread gc([&] {
    pmsim::ThreadContext ctx(rt->device(), 0, 64);
    while (!stop.load()) {
      tree.RunGcOnce();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; t++) {
    writers.emplace_back([&, t] {
      pmsim::ThreadContext ctx(rt->device(), t % 2, t);
      for (uint64_t i = 1; i <= 30000; i++) {
        uint64_t key = (i * 4 + static_cast<uint64_t>(t)) | 1;
        tree.Upsert(Mix64(key) | 1, key);
      }
    });
  }
  for (auto& writer : writers) {
    writer.join();
  }
  stop.store(true);
  gc.join();
  EXPECT_TRUE(tree.CheckInvariants());
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (int t = 0; t < 3; t++) {
    for (uint64_t i = 1; i <= 30000; i += 177) {
      uint64_t key = (i * 4 + static_cast<uint64_t>(t)) | 1;
      uint64_t value = 0;
      ASSERT_TRUE(tree.Lookup(Mix64(key) | 1, &value));
    }
  }
}

// --- crash consistency & recovery ----------------------------------------------------

class CclCrashTest : public ::testing::TestWithParam<int> {};

TEST_P(CclCrashTest, AllCompletedUpsertsSurviveCrash) {
  // Every Upsert that returned before the power failure must be recoverable:
  // it was either WAL-logged + fenced, or flushed with the leaf batch.
  auto rt = MakeRuntime();
  TreeOptions options;
  options.background_gc = false;
  const int kOps = 20000;
  std::map<uint64_t, uint64_t> model;
  {
    CclBTree tree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    Rng rng(static_cast<uint64_t>(GetParam()));
    for (int i = 0; i < kOps; i++) {
      uint64_t key = Mix64(rng.NextBounded(10000) + 1) | 1;
      uint64_t value = rng.Next() | 1;
      tree.Upsert(key, value);
      model[key] = value;
    }
  }
  auto tree = testutil::CrashAndRecoverTree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (const auto& [key, value] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(tree->Lookup(key, &got)) << "lost key " << key;
    EXPECT_EQ(got, value) << "stale value for key " << key;
  }
  EXPECT_TRUE(tree->CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CclCrashTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(CclRecovery, DeletesSurviveCrash) {
  auto rt = MakeRuntime();
  TreeOptions options;
  options.background_gc = false;
  {
    CclBTree tree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 1000; k++) {
      tree.Upsert(k, k);
    }
    tree.FlushAll();
    for (uint64_t k = 1; k <= 1000; k += 2) {
      tree.Remove(k);  // tombstones, many still buffered at crash time
    }
  }
  auto tree = testutil::CrashAndRecoverTree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (uint64_t k = 1; k <= 1000; k++) {
    uint64_t value = 0;
    ASSERT_EQ(tree->Lookup(k, &value), k % 2 == 0) << "key " << k;
  }
}

TEST(CclRecovery, CrashAfterGcLosesNothing) {
  auto rt = MakeRuntime();
  TreeOptions options;
  options.background_gc = false;
  std::map<uint64_t, uint64_t> model;
  {
    CclBTree tree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    Rng rng(77);
    for (int i = 0; i < 30000; i++) {
      uint64_t key = Mix64(rng.NextBounded(15000) + 1) | 1;
      uint64_t value = rng.Next() | 1;
      tree.Upsert(key, value);
      model[key] = value;
    }
    tree.RunGcOnce();
    for (int i = 0; i < 5000; i++) {
      uint64_t key = Mix64(rng.NextBounded(15000) + 1) | 1;
      uint64_t value = rng.Next() | 1;
      tree.Upsert(key, value);
      model[key] = value;
    }
  }
  auto tree = testutil::CrashAndRecoverTree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (const auto& [key, value] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(tree->Lookup(key, &got)) << "lost key " << key;
    EXPECT_EQ(got, value);
  }
}

TEST(CclRecovery, ParallelRecoveryMatchesSerial) {
  auto build = [](int recovery_threads) {
    auto rt = MakeRuntime();
    TreeOptions options;
    options.background_gc = false;
    std::map<uint64_t, uint64_t> model;
    {
      CclBTree tree(*rt, options);
      pmsim::ThreadContext ctx(rt->device(), 0, 0);
      Rng rng(55);
      for (int i = 0; i < 20000; i++) {
        uint64_t key = Mix64(rng.NextBounded(8000) + 1) | 1;
        uint64_t value = rng.Next() | 1;
        tree.Upsert(key, value);
        model[key] = value;
      }
    }
    auto tree = testutil::CrashAndRecoverTree(*rt, options, recovery_threads);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    std::map<uint64_t, uint64_t> result;
    for (const auto& [key, value] : model) {
      uint64_t got = 0;
      if (tree->Lookup(key, &got)) {
        result[key] = got;
      }
    }
    EXPECT_EQ(result.size(), model.size());
    return result;
  };
  EXPECT_EQ(build(1), build(4));
}

TEST(CclRecovery, DoubleCrashDuringOperationIsSafe) {
  auto rt = MakeRuntime();
  TreeOptions options;
  options.background_gc = false;
  std::map<uint64_t, uint64_t> model;
  {
    CclBTree tree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 5000; k++) {
      tree.Upsert(k, k);
      model[k] = k;
    }
  }
  {
    auto tree = testutil::CrashAndRecoverTree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 5001; k <= 6000; k++) {
      tree->Upsert(k, k);
      model[k] = k;
    }
  }
  auto tree = testutil::CrashAndRecoverTree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (const auto& [key, value] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(tree->Lookup(key, &got)) << "lost key " << key;
    EXPECT_EQ(got, value);
  }
}

TEST(CclRecovery, RecoveredTreeAcceptsNewWritesAndScans) {
  auto rt = MakeRuntime();
  TreeOptions options;
  options.background_gc = false;
  {
    CclBTree tree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 2000; k++) {
      tree.Upsert(k * 2, k);
    }
  }
  auto tree = testutil::CrashAndRecoverTree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (uint64_t k = 1; k <= 2000; k++) {
    tree->Upsert(k * 2 + 1, k);  // interleave odd keys
  }
  KeyValue out[100];
  size_t n = tree->Scan(100, 100, out);
  ASSERT_EQ(n, 100u);
  for (size_t i = 1; i < n; i++) {
    EXPECT_EQ(out[i].key, out[i - 1].key + 1);
  }
  EXPECT_TRUE(tree->CheckInvariants());
}

TEST(CclRecovery, TornCrashIsRecoverable) {
  // CrashTorn persists a random subset of unfenced lines; the log-entry
  // checksum tags must reject any torn entries and recovery must still
  // restore every completed upsert.
  auto rt = MakeRuntime();
  TreeOptions options;
  options.background_gc = false;
  std::map<uint64_t, uint64_t> model;
  {
    CclBTree tree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    Rng rng(66);
    for (int i = 0; i < 10000; i++) {
      uint64_t key = Mix64(rng.NextBounded(4000) + 1) | 1;
      uint64_t value = rng.Next() | 1;
      tree.Upsert(key, value);
      model[key] = value;
    }
  }
  auto tree = testutil::CrashAndRecoverTree(*rt, options, /*recovery_threads=*/1,
                                            /*torn=*/true, /*torn_seed=*/1234);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (const auto& [key, value] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(tree->Lookup(key, &got)) << "lost key " << key;
    EXPECT_EQ(got, value);
  }
}

// --- ablation configurations ------------------------------------------------------

TEST(CclAblation, BaseModeIsDurablePerOperation) {
  auto rt = MakeRuntime();
  TreeOptions options;
  options.background_gc = false;
  options.buffering = false;
  {
    CclBTree tree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 3000; k++) {
      tree.Upsert(k, k + 7);
    }
  }
  auto tree = testutil::CrashAndRecoverTree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (uint64_t k = 1; k <= 3000; k++) {
    uint64_t value = 0;
    ASSERT_TRUE(tree->Lookup(k, &value)) << "key " << k;
    EXPECT_EQ(value, k + 7);
  }
}

class NbatchTest : public ::testing::TestWithParam<int> {};

TEST_P(NbatchTest, AllNbatchValuesCorrect) {
  auto rt = MakeRuntime();
  TreeOptions options;
  options.background_gc = false;
  options.nbatch = GetParam();
  CclBTree tree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (uint64_t k = 1; k <= 5000; k++) {
    tree.Upsert(Mix64(k) | 1, k);
  }
  for (uint64_t k = 1; k <= 5000; k++) {
    uint64_t value = 0;
    ASSERT_TRUE(tree.Lookup(Mix64(k) | 1, &value));
    EXPECT_EQ(value, k);
  }
  EXPECT_TRUE(tree.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Nbatch1To5, NbatchTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace cclbt::core
