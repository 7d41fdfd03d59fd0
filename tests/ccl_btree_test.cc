// Tests for CCL-BTree: functional correctness against a model, buffering
// semantics, splits/merges, scans, write amplification behaviour, GC modes,
// crash-consistency and recovery.
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ccl_btree.h"
#include "src/pmsim/crash_injector.h"
#include "src/pmsim/virtual_workers.h"
#include "tests/crash_util.h"
#include "tests/gc_copy_util.h"

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
  options.gc_quantum_ops = 0;  // tests drive GC explicitly
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
  auto measure = [](int nbatch) {
    auto rt = MakeRuntime(256 << 20, pmsim::MediaBackend::kAdrOptane);
    TreeOptions options;
    options.gc_quantum_ops = 0;
    options.nbatch = nbatch;
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
  double xbi_base = measure(0);
  double xbi_ccl = measure(2);
  EXPECT_LT(xbi_ccl, xbi_base * 0.75);
}

TEST_F(CclBTreeTest, WriteConservativeLoggingReducesLogBytes) {
  auto measure = [](bool conservative) {
    auto rt = MakeRuntime();
    TreeOptions options;
    options.gc_quantum_ops = 0;
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

// 48 workers on one socket step one fresh uniform insert each per round, as
// the driver does, with background GC flipping epochs under them. Each
// worker's log chunks start on its own DIMM, so their active log XPLines
// spread over the socket's 4 DIMMs and ~10.7 appends merge into each media
// write: the WAL's media bytes stay near the bytes it appended. With every
// chunk starting on one DIMM they read about 1.9x.
TEST(CclWal, LockstepWorkersKeepLogAppendsSequential) {
  RuntimeOptions options;
  options.device.pool_bytes = 512 << 20;
  options.device.backend = pmsim::MediaBackend::kAdrOptane;
  options.device.crash_tracking = false;
  Runtime rt(options);
  CclBTree tree(rt, TreeOptions{});
  constexpr int kWorkers = 48;
  uint64_t next = 0;
  auto run = [&](uint64_t rounds) {
    // Fill-first placement: all 48 on socket 0.
    pmsim::VirtualWorkers workers(rt.device(), kWorkers,
                                  [&rt](int w) { return rt.SocketForWorker(w, 48); });
    std::vector<uint64_t> done(kWorkers, 0);
    workers.Run([&](int w) {
      next++;
      tree.Upsert(Mix64(next) | 1, next);
      return ++done[static_cast<size_t>(w)] < rounds;
    });
  };
  run(1000);  // warm-up
  const uint64_t flushes = tree.buffer_flushes();
  const auto before = rt.device().stats().Snapshot();
  constexpr uint64_t kRounds = 3000;
  run(kRounds);
  const auto delta = rt.device().stats().Snapshot().Delta(before);
  ASSERT_GT(tree.gc_rounds(), 0u);
  // Write-conservative logging logs every fresh insert but a trigger write.
  const uint64_t appended =
      (kWorkers * kRounds - (tree.buffer_flushes() - flushes)) * sizeof(LogEntry);
  EXPECT_LE(static_cast<double>(delta.media_write_bytes_for(trace::Component::kWal)),
            1.15 * static_cast<double>(appended));
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

// A GC round makes its I-log copy durable one 4 KiB span at a time: it
// commits each line the copies cover (a line split by a span boundary once
// per span) with one fence per span, plus the header of the I-log chunk it
// activates and the free marker of each B-log chunk it releases. Ticks with
// no current context run one span each, until the round ends.
TEST(CclGc, CopyCommitsEachLineOncePerSpan) {
  auto rt = MakeRuntime();
  CclBTree tree(*rt, QuietOptions());
  {
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 20000; k++) {
      tree.Upsert(Mix64(k) | 1, k);
    }
  }
  const uint64_t blog_chunks = testutil::ActiveLogChunks(tree.log_slab()).size();
  auto before = rt->device().stats().Snapshot();
  uint64_t ticks = 0;
  while (tree.gc_rounds() == 0) {
    ASSERT_TRUE(tree.GcTick());
    ASSERT_LT(++ticks, 1000u);
  }
  auto delta = rt->device().stats().Snapshot().Delta(before);
  // The I-log holds the copies alone, from the start of a fresh chunk.
  const auto ilog = testutil::ActiveLogChunks(tree.log_slab());
  ASSERT_EQ(ilog.size(), 1u);
  const uint64_t copied = tree.log_live_bytes() / sizeof(LogEntry);
  ASSERT_GT(copied, 3 * kGcSpanEntries);
  const testutil::GcCommits expected = testutil::ExpectedGcCommits(*ilog[0], copied, blog_chunks);
  EXPECT_EQ(delta.committed_lines_by_component[static_cast<int>(trace::Component::kGc)],
            expected.lines);
  EXPECT_EQ(delta.fences, expected.fences);
  EXPECT_EQ(tree.gc_rounds(), 1u);
}

// A crash at any fence of any span of a GC round, clean or torn — a copy
// span's, the I-log chunk activation's or the B-log release's — loses
// nothing: the copy is durable before the B-log it duplicates is freed.
TEST(CclGc, CrashInsideGcRoundLosesNothing) {
  constexpr uint64_t kKeys = 8000;
  // Runs the workload, then ticks one GC round span by span with `injector`
  // armed at `target` (0: count only), settling a fired crash before the
  // tree goes away.
  auto run = [](Runtime& rt, uint64_t target, bool torn) {
    pmsim::CrashInjector injector;
    CclBTree tree(rt, QuietOptions());
    {
      pmsim::ThreadContext ctx(rt.device(), 0, 0);
      for (uint64_t k = 1; k <= kKeys; k++) {
        tree.Upsert(Mix64(k) | 1, k);
      }
    }
    rt.device().SetCrashInjector(&injector);
    injector.Arm(target,
                 torn ? pmsim::CrashInjector::Mode::kTorn : pmsim::CrashInjector::Mode::kClean,
                 target);
    bool fired = false;
    try {
      for (int tick = 0; tick < 1000 && tree.gc_rounds() == 0; tick++) {
        tree.GcTick();
      }
    } catch (const pmsim::CrashPointReached&) {
      fired = true;
    }
    rt.device().SetCrashInjector(nullptr);
    if (torn) {
      rt.device().CrashTorn(target);
    } else {
      rt.device().Crash();
    }
    EXPECT_EQ(fired, target != 0);
    return tree.gc_fence_windows();
  };

  std::vector<CclBTree::GcFenceWindow> windows;
  {
    auto rt = MakeRuntime();
    windows = run(*rt, 0, false);
  }
  ASSERT_GE(windows.size(), 3u) << "the round did not run in several spans";
  std::vector<uint64_t> targets;
  for (const CclBTree::GcFenceWindow& window : windows) {
    for (uint64_t target = window.first_fence; target <= window.last_fence; target++) {
      targets.push_back(target);
    }
  }
  ASSERT_GE(targets.size(), windows.size() + 4);  // + the I-log chunk's carving and header
  for (uint64_t target : targets) {
    for (bool torn : {false, true}) {
      SCOPED_TRACE("fence " + std::to_string(target) + (torn ? " torn" : " clean"));
      auto rt = MakeRuntime();
      run(*rt, target, torn);
      std::string error;
      ASSERT_TRUE(rt->Reopen(&error)) << error;
      CclBTree tree(*rt, QuietOptions(), kvindex::Lifecycle::kAttach);
      ASSERT_TRUE(tree.Recover(*rt, /*recovery_threads=*/1));
      pmsim::ThreadContext ctx(rt->device(), 0, 0);
      for (uint64_t k = 1; k <= kKeys; k++) {
        uint64_t value = 0;
        ASSERT_TRUE(tree.Lookup(Mix64(k) | 1, &value)) << "lost key " << k;
        EXPECT_EQ(value, k);
      }
      EXPECT_TRUE(tree.CheckInvariants());
    }
  }
}

// A round that cannot get an I-log chunk ends before it frees the B-log, in
// every build: the B-log is the only durable copy of the KVs it buffered.
TEST(CclGc, RoundThatRunsOutOfLogKeepsTheBLog) {
  auto rt = MakeRuntime();
  {
    CclBTree tree(*rt, QuietOptions());
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 3000; k++) {
      tree.Upsert(Mix64(k) | 1, k);
    }
    for (int socket = 0; socket < 2; socket++) {
      while (rt->pool().AllocateRaw(kWalChunkBytes, socket) != nullptr) {
      }
    }
    ASSERT_TRUE(tree.GcTriggerReached());
    const uint64_t live = tree.log_live_bytes();
    EXPECT_TRUE(tree.GcTick());
    EXPECT_EQ(tree.gc_rounds(), 0u);
    EXPECT_EQ(tree.log_live_bytes(), live);
    EXPECT_FALSE(tree.GcTriggerReached());  // re-armed only once the log doubles
  }
  // Recovery's own copy round finds the pool full too: it writes the KVs it
  // staged to their leaves instead, before it frees the log they came from,
  // so a second crash and recovery still reads every key.
  for (int restart = 0; restart < 2; restart++) {
    SCOPED_TRACE("restart " + std::to_string(restart));
    auto tree = testutil::CrashAndRecoverTree(*rt, QuietOptions());
    EXPECT_EQ(tree->log_live_bytes(), 0u);  // no copy reached the log
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 3000; k++) {
      uint64_t value = 0;
      ASSERT_TRUE(tree->Lookup(Mix64(k) | 1, &value)) << "lost key " << k;
      EXPECT_EQ(value, k);
    }
    EXPECT_TRUE(tree->CheckInvariants());
  }
}

// --- concurrency ------------------------------------------------------------------

TEST(CclBTreeConcurrency, ParallelDisjointInserts) {
  auto rt = MakeRuntime();
  TreeOptions options;
  options.gc_quantum_ops = 0;
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
  options.gc_quantum_ops = 0;
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
  options.gc_quantum_ops = 0;
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
  options.gc_quantum_ops = 0;
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
  options.gc_quantum_ops = 0;
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
  options.gc_quantum_ops = 0;
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
  struct Recovered {
    std::map<uint64_t, uint64_t> contents;
    uint64_t modeled_ns = 0;
    pmsim::StatsSnapshot stats;
  };
  auto build = [](int recovery_threads) {
    auto rt = MakeRuntime();
    TreeOptions options;
    options.gc_quantum_ops = 0;
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
    Recovered out;
    out.modeled_ns = tree->last_recovery_modeled_ns();
    out.stats = rt->device().stats().Snapshot();
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (const auto& [key, value] : model) {
      uint64_t got = 0;
      if (tree->Lookup(key, &got)) {
        out.contents[key] = got;
      }
    }
    EXPECT_EQ(out.contents.size(), model.size());
    return out;
  };
  Recovered serial = build(1);
  Recovered parallel = build(4);
  EXPECT_EQ(serial.contents, parallel.contents);
  // Replay runs on virtual workers, so two recoveries of the same image take
  // the same modeled time and move the same media bytes.
  Recovered again = build(4);
  EXPECT_GT(parallel.modeled_ns, 0u);
  EXPECT_EQ(parallel.modeled_ns, again.modeled_ns);
  EXPECT_EQ(parallel.stats.media_read_bytes, again.stats.media_read_bytes);
  EXPECT_EQ(parallel.stats.media_write_bytes, again.stats.media_write_bytes);
  EXPECT_EQ(parallel.stats.pm_read_hits, again.stats.pm_read_hits);
}

// Recovery validates the persistent leaf list and the chunk registries
// instead of trusting them. A next pointer back to an earlier leaf, an empty
// leaf linked to itself, leaves out of key order, a next pointer that is no
// slot of the leaf slab (past the pool, or into the slab's registry), a
// registry count above the registry's capacity, a registry offset or a chunk
// offset past the pool each make Recover() return false, and the failed
// instance destructs cleanly.
TEST(CclRecovery, DamagedLeafListFailsRecovery) {
  enum class Damage {
    kBackPointer,
    kSelfLinkedEmptyLeaf,
    kOutOfOrder,
    kOutsidePool,
    kNotALeafSlot,
    kLeafRegistryCount,
    kLogRegistryCount,
    kLeafRegistryOffset,
    kLogRegistryOffset,
    kLeafChunkOffset,
    kLogChunkOffset,
    kLeafChunkRepeat,
    kLogChunkRepeat,
  };
  for (Damage damage : {Damage::kBackPointer, Damage::kSelfLinkedEmptyLeaf, Damage::kOutOfOrder,
                        Damage::kOutsidePool, Damage::kNotALeafSlot, Damage::kLeafRegistryCount,
                        Damage::kLogRegistryCount, Damage::kLeafRegistryOffset,
                        Damage::kLogRegistryOffset, Damage::kLeafChunkOffset,
                        Damage::kLogChunkOffset, Damage::kLeafChunkRepeat,
                        Damage::kLogChunkRepeat}) {
    SCOPED_TRACE(static_cast<int>(damage));
    auto rt = MakeRuntime();
    TreeOptions options = QuietOptions();
    {
      CclBTree tree(*rt, options);
      pmsim::ThreadContext ctx(rt->device(), 0, 0);
      for (uint64_t k = 1; k <= 200; k++) {
        tree.Upsert(k, k);
      }
      tree.FlushAll();
      tree.Upsert(201, 201);  // logged, so the log registry lists a chunk
    }
    rt->device().Crash();
    std::string error;
    ASSERT_TRUE(rt->Reopen(&error)) << error;

    // The durable leaf list, head first. The tree root record's words are
    // its magic, the head leaf's pool offset, then the leaf slab's and the
    // log slab's registry offsets; a registry is a chunk count followed by
    // the chunks' pool offsets.
    auto leaf_at = [&rt](uint64_t offset) {
      return static_cast<PmLeaf*>(rt->pool().ToAddr(offset));
    };
    auto* root =
        static_cast<uint64_t*>(rt->pool().ToAddr(rt->pool().GetAppRoot(options.root_slot)));
    auto* leaf_registry = static_cast<uint64_t*>(rt->pool().ToAddr(root[2]));
    auto* log_registry = static_cast<uint64_t*>(rt->pool().ToAddr(root[3]));
    ASSERT_GE(leaf_registry[0], 1u);
    ASSERT_GE(log_registry[0], 1u);
    const uint64_t pool_bytes = rt->device().config().pool_bytes;
    std::vector<uint64_t> leaves;
    for (uint64_t offset = root[1]; offset != 0; offset = leaf_at(offset)->next_offset()) {
      leaves.push_back(offset);
    }
    ASSERT_GE(leaves.size(), 4u);
    PmLeaf* first = leaf_at(leaves[1]);
    PmLeaf* second = leaf_at(leaves[2]);
    PmLeaf* third = leaf_at(leaves[3]);
    switch (damage) {
      case Damage::kBackPointer:
        second->meta.store(MakeMeta(second->bitmap(), leaves[1]));
        break;
      case Damage::kSelfLinkedEmptyLeaf:
        second->meta.store(MakeMeta(0, leaves[2]));
        break;
      case Damage::kOutOfOrder:  // head -> first -> third -> second
        first->meta.store(MakeMeta(first->bitmap(), leaves[3]));
        third->meta.store(MakeMeta(third->bitmap(), leaves[2]));
        break;
      case Damage::kOutsidePool:
        second->meta.store(
            MakeMeta(second->bitmap(), rt->device().config().pool_bytes + kLeafBytes));
        break;
      case Damage::kNotALeafSlot:
        // Zeroes inside the leaf slab's chunk registry (the root record's
        // third word), which read as an empty last leaf.
        second->meta.store(MakeMeta(second->bitmap(), root[2] + 4096));
        break;
      case Damage::kLeafRegistryCount:
        leaf_registry[0] = pmem::SlabAllocator::Options{}.max_chunks + 1;
        break;
      case Damage::kLogRegistryCount:
        log_registry[0] = 1ULL << 40;
        break;
      case Damage::kLeafRegistryOffset:
        root[2] = pool_bytes;
        break;
      case Damage::kLogRegistryOffset:  // the count fits in the pool, its one offset does not
        root[3] = pool_bytes - sizeof(uint64_t);
        *static_cast<uint64_t*>(rt->pool().ToAddr(root[3])) = 1;
        break;
      case Damage::kLeafChunkOffset:
        leaf_registry[1] = pool_bytes - kLeafBytes;  // a chunk straddling the pool's end
        break;
      case Damage::kLogChunkOffset:
        log_registry[1] = pool_bytes + kWalChunkBytes;
        break;
      case Damage::kLeafChunkRepeat:  // the slab would hand out its slots twice
        leaf_registry[leaf_registry[0] + 1] = leaf_registry[1];
        leaf_registry[0]++;
        break;
      case Damage::kLogChunkRepeat:
        log_registry[log_registry[0] + 1] = log_registry[1];
        log_registry[0]++;
        break;
    }
    auto tree = std::make_unique<CclBTree>(*rt, options, kvindex::Lifecycle::kAttach);
    EXPECT_FALSE(tree->Recover(*rt, /*recovery_threads=*/4));
    EXPECT_FALSE(tree->GcTick());
    tree.reset();
  }
}

// A log chunk header whose entry_offset lies outside the chunk makes its
// chunk no log chunk (WalFixture.DamagedEntryOffsetIsNoLogChunk has every
// rejected offset): recovery reads nothing outside it and succeeds without
// the chunk's entries, with a tree that passes its invariants.
TEST(CclRecovery, DamagedLogEntryOffsetDropsOnlyItsChunk) {
  auto rt = MakeRuntime();
  TreeOptions options = QuietOptions();
  {
    CclBTree tree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 200; k++) {
      tree.Upsert(k, k);
    }
    tree.FlushAll();
    tree.Upsert(201, 201);  // logged only, in the log slab's one chunk
  }
  rt->device().Crash();
  std::string error;
  ASSERT_TRUE(rt->Reopen(&error)) << error;
  // The tree root record's fourth word is the log slab's registry: a chunk
  // count, then the chunks' pool offsets.
  auto* root =
      static_cast<uint64_t*>(rt->pool().ToAddr(rt->pool().GetAppRoot(options.root_slot)));
  auto* log_registry = static_cast<uint64_t*>(rt->pool().ToAddr(root[3]));
  ASSERT_EQ(log_registry[0], 1u);
  static_cast<LogChunkHeader*>(rt->pool().ToAddr(log_registry[1]))->entry_offset = 0xFFFFFFF8u;

  CclBTree tree(*rt, options, kvindex::Lifecycle::kAttach);
  ASSERT_TRUE(tree.Recover(*rt, /*recovery_threads=*/4));
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  EXPECT_TRUE(tree.CheckInvariants());
  uint64_t value = 0;
  for (uint64_t k = 1; k <= 200; k++) {
    ASSERT_TRUE(tree.Lookup(k, &value)) << k;
  }
  EXPECT_FALSE(tree.Lookup(201, &value));
}

TEST(CclRecovery, DoubleCrashDuringOperationIsSafe) {
  auto rt = MakeRuntime();
  TreeOptions options;
  options.gc_quantum_ops = 0;
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
  options.gc_quantum_ops = 0;
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
  options.gc_quantum_ops = 0;
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

// A restart restarts the ORDO clock, so updates logged after one recovery
// carry timestamps below those of leaves flushed before the first crash.
// They must still replay after a second crash.
TEST(CclRecovery, UpdatesAfterRecoverySurviveSecondCrash) {
  auto rt = MakeRuntime();
  TreeOptions options = QuietOptions();
  std::map<uint64_t, uint64_t> model;
  {
    CclBTree tree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t round = 1; round <= 5; round++) {
      for (uint64_t k = 1; k <= 3000; k++) {
        tree.Upsert(k, k * 10 + round);
        model[k] = k * 10 + round;
      }
    }
    tree.FlushAll();
  }
  {
    auto tree = testutil::CrashAndRecoverTree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    // One key per leaf, so each update stays buffered and logged.
    for (uint64_t k = 1; k <= 3000; k += 40) {
      tree->Upsert(k, k * 10 + 9);
      model[k] = k * 10 + 9;
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

// Recovery replays a key's newest entry only: a hot key logged 1000 times
// in one buffer slot costs one leaf batch, not 1000.
TEST(CclRecovery, HotKeyIsReplayedOnce) {
  auto rt = MakeRuntime();
  TreeOptions options = QuietOptions();
  {
    CclBTree tree(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 2000; k++) {
      tree.Upsert(k, k);
    }
    tree.FlushAll();
    for (uint64_t i = 1; i <= 1000; i++) {
      tree.Upsert(777, i);
    }
  }
  testutil::CrashRestart(*rt);
  CclBTree tree(*rt, options, kvindex::Lifecycle::kAttach);
  pmsim::CrashInjector injector;
  rt->device().SetCrashInjector(&injector);
  injector.Arm(/*fence_target=*/0);  // count-only
  ASSERT_TRUE(tree.Recover(*rt, /*recovery_threads=*/1));
  rt->device().SetCrashInjector(nullptr);
  EXPECT_LT(injector.fences_observed(), 10u);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  uint64_t value = 0;
  ASSERT_TRUE(tree.Lookup(777, &value));
  EXPECT_EQ(value, 1000u);
}

// RECIPE's "writers fix inconsistencies", applied to recovery itself: a
// crash at a fence inside Recover(), clean or torn, with one or four replay
// workers, recovers again to a tree that holds every acknowledged upsert.
// Two pre-crash workers log into two chunks, so a key's entries can span the
// chunks the reclaim frees one at a time.
TEST(CclRecovery, CrashInsideRecoveryRecoversAgain) {
  TreeOptions options = QuietOptions();
  std::map<uint64_t, uint64_t> model;
  // The same seeded crashed image on every call.
  auto crashed_image = [&options, &model]() {
    auto rt = MakeRuntime();
    {
      CclBTree tree(*rt, options);
      pmsim::ThreadContext w0(rt->device(), 0, 0);
      pmsim::ThreadContext w1(rt->device(), 1, 1);
      Rng rng(91);
      for (int i = 0; i < 6000; i++) {
        pmsim::ThreadContext::SetCurrent(i % 2 == 0 ? &w0 : &w1);
        uint64_t key = Mix64(rng.NextBounded(2500) + 1) | 1;
        uint64_t value = rng.Next() | 1;
        tree.Upsert(key, value);
        model[key] = value;
      }
    }
    testutil::CrashRestart(*rt);
    return rt;
  };

  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " recovery threads");
    uint64_t fences = 0;
    {
      auto rt = crashed_image();
      CclBTree tree(*rt, options, kvindex::Lifecycle::kAttach);
      pmsim::CrashInjector injector;
      rt->device().SetCrashInjector(&injector);
      injector.Arm(/*fence_target=*/0);  // count-only
      ASSERT_TRUE(tree.Recover(*rt, threads));
      rt->device().SetCrashInjector(nullptr);
      fences = injector.fences_observed();
    }
    ASSERT_GE(fences, 3u);  // at least the floor persist and the two chunk frees
    // Every fence, or 40 points spread over the fences plus the last three.
    std::set<uint64_t> targets = {fences - 2, fences - 1};
    const uint64_t points = std::min<uint64_t>(fences, 40);
    for (uint64_t i = 1; i <= points; i++) {
      targets.insert(i * fences / points);
    }

    bool torn = false;
    for (uint64_t target : targets) {
      SCOPED_TRACE("fence " + std::to_string(target) + (torn ? " torn" : " clean"));
      auto rt = crashed_image();
      {
        CclBTree tree(*rt, options, kvindex::Lifecycle::kAttach);
        pmsim::CrashInjector injector;
        rt->device().SetCrashInjector(&injector);
        injector.Arm(target);
        EXPECT_THROW(tree.Recover(*rt, threads), pmsim::CrashPointReached);
        rt->device().SetCrashInjector(nullptr);
      }
      testutil::CrashRestart(*rt, torn, /*torn_seed=*/target);
      CclBTree tree(*rt, options, kvindex::Lifecycle::kAttach);
      ASSERT_TRUE(tree.Recover(*rt, threads));
      pmsim::ThreadContext ctx(rt->device(), 0, 0);
      for (const auto& [key, value] : model) {
        uint64_t got = 0;
        ASSERT_TRUE(tree.Lookup(key, &got)) << "lost key " << key;
        ASSERT_EQ(got, value) << "stale value for key " << key;
      }
      EXPECT_TRUE(tree.CheckInvariants());
      torn = !torn;
    }
  }
}

// A node stages at most nbatch KVs. An image written with nbatch 4 and
// recovered with nbatch 1 overflows its nodes: each full node's staged KV
// and next entries go to its leaf in one batch that keeps the leaf's
// timestamp, deletes included, while the KVs staged after them wait for the
// copy. A crash at any fence of that recovery, clean or torn, with one or
// four workers, recovers again to every acknowledged upsert and delete.
TEST(CclRecovery, OverflowingNodesRecoverAgainAfterCrashAtEveryFence) {
  TreeOptions written = QuietOptions();
  written.nbatch = 4;
  TreeOptions options = QuietOptions();
  options.nbatch = 1;
  std::map<uint64_t, uint64_t> model;  // kTombstone: deleted
  auto crashed_image = [&written, &model]() {
    auto rt = MakeRuntime(32 << 20);
    {
      CclBTree tree(*rt, written);
      pmsim::ThreadContext ctx(rt->device(), 0, 0);
      Rng rng(23);
      for (int i = 0; i < 1500; i++) {
        uint64_t key = Mix64(rng.NextBounded(400) + 1) | 1;
        uint64_t value = rng.NextBounded(4) == 0 ? kTombstone : rng.Next() | 1;
        tree.Upsert(key, value);
        model[key] = value;
      }
    }
    testutil::CrashRestart(*rt);
    return rt;
  };
  auto expect_model = [&model](Runtime& rt, CclBTree& tree) {
    pmsim::ThreadContext ctx(rt.device(), 0, 0);
    for (const auto& [key, value] : model) {
      uint64_t got = 0;
      ASSERT_EQ(tree.Lookup(key, &got), value != kTombstone) << "key " << key;
      if (value != kTombstone) {
        ASSERT_EQ(got, value) << "stale value for key " << key;
      }
    }
    EXPECT_TRUE(tree.CheckInvariants());
  };

  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " recovery threads");
    uint64_t fences = 0;
    {
      auto rt = crashed_image();
      CclBTree tree(*rt, options, kvindex::Lifecycle::kAttach);
      pmsim::CrashInjector injector;
      rt->device().SetCrashInjector(&injector);
      injector.Arm(/*fence_target=*/0);  // count-only
      const auto before = rt->device().stats().Snapshot();
      ASSERT_TRUE(tree.Recover(*rt, threads));
      const auto delta = rt->device().stats().Snapshot().Delta(before);
      rt->device().SetCrashInjector(nullptr);
      fences = injector.fences_observed();
      // Overflow reached the leaves, and the staged KVs the log.
      EXPECT_GT(delta.committed_lines_by_component[static_cast<int>(trace::Component::kLeaf)], 0u);
      EXPECT_GT(tree.log_live_bytes(), 0u);
      expect_model(*rt, tree);
    }
    for (uint64_t target = 1; target <= fences; target++) {
      for (bool torn : {false, true}) {
        SCOPED_TRACE("fence " + std::to_string(target) + (torn ? " torn" : " clean"));
        auto rt = crashed_image();
        {
          CclBTree tree(*rt, options, kvindex::Lifecycle::kAttach);
          pmsim::CrashInjector injector;
          rt->device().SetCrashInjector(&injector);
          injector.Arm(target);
          EXPECT_THROW(tree.Recover(*rt, threads), pmsim::CrashPointReached);
          rt->device().SetCrashInjector(nullptr);
        }
        testutil::CrashRestart(*rt, torn, /*torn_seed=*/target);
        CclBTree tree(*rt, options, kvindex::Lifecycle::kAttach);
        ASSERT_TRUE(tree.Recover(*rt, threads));
        expect_model(*rt, tree);
      }
    }
  }
}

// --- ablation configurations ------------------------------------------------------

// Base (N_batch = 0): every upsert is a trigger write, durable in its leaf
// when it returns and never logged. A crash after a run has returned, or at
// any fence of a mixed upsert/delete run, clean or torn, keeps every
// acknowledged op, and the op in flight is applied wholly or not at all.
TEST(CclAblation, BaseModeIsDurablePerOperation) {
  TreeOptions options = QuietOptions();
  options.nbatch = 0;
  std::vector<KeyValue> ops;
  Rng rng(29);
  for (int i = 0; i < 400; i++) {
    uint64_t key = Mix64(rng.NextBounded(120) + 1) | 1;
    ops.push_back({key, rng.NextBounded(4) == 0 ? kTombstone : rng.Next() | 1});
  }
  // Runs `ops` on a fresh tree with a crash armed at `target` (0: none), and
  // returns how many were acknowledged.
  auto run = [&](Runtime& rt, pmsim::CrashInjector& injector, uint64_t target) {
    CclBTree tree(rt, options);
    pmsim::ThreadContext ctx(rt.device(), 0, 0);
    rt.device().SetCrashInjector(&injector);
    injector.Arm(target);
    size_t acked = 0;
    try {
      for (; acked < ops.size(); acked++) {
        tree.Upsert(ops[acked].key, ops[acked].value);
      }
      EXPECT_EQ(tree.log_live_bytes(), 0u);
      EXPECT_GT(tree.merges(), 0u);
    } catch (const pmsim::CrashPointReached&) {
    }
    rt.device().SetCrashInjector(nullptr);
    return acked;
  };
  // Crashes `rt`, recovers, and checks every key of `ops` against the first
  // `acked` ops; ops[acked], if any, was in flight and may read old or new.
  auto expect_acked = [&](Runtime& rt, size_t acked, bool torn, uint64_t torn_seed) {
    std::map<uint64_t, uint64_t> model;  // kTombstone: deleted
    for (size_t i = 0; i < acked; i++) {
      model[ops[i].key] = ops[i].value;
    }
    auto tree = testutil::CrashAndRecoverTree(rt, options, 1, torn, torn_seed);
    pmsim::ThreadContext ctx(rt.device(), 0, 0);
    for (const KeyValue& op : ops) {
      uint64_t got = 0;
      const bool found = tree->Lookup(op.key, &got);
      const uint64_t value = found ? got : kTombstone;
      const auto it = model.find(op.key);
      const uint64_t acked_value = it != model.end() ? it->second : kTombstone;
      if (acked < ops.size() && op.key == ops[acked].key) {
        ASSERT_TRUE(value == acked_value || value == ops[acked].value) << "key " << op.key;
      } else {
        ASSERT_EQ(value, acked_value) << "key " << op.key;
      }
    }
    ASSERT_TRUE(tree->CheckInvariants());
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

  // Sequential inserts split hundreds of leaves; after they return, every
  // key reads back.
  for (bool torn : {false, true}) {
    SCOPED_TRACE(torn ? "sequential run, torn" : "sequential run, clean");
    auto rt = MakeRuntime();
    {
      CclBTree tree(*rt, options);
      pmsim::ThreadContext ctx(rt->device(), 0, 0);
      for (uint64_t k = 1; k <= 3000; k++) {
        tree.Upsert(k, k + 7);
      }
      EXPECT_GT(tree.splits(), 100u);
    }
    auto tree = testutil::CrashAndRecoverTree(*rt, options, 1, torn, /*torn_seed=*/3000);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 3000; k++) {
      uint64_t value = 0;
      ASSERT_TRUE(tree->Lookup(k, &value)) << "key " << k;
      ASSERT_EQ(value, k + 7);
    }
  }
}

class NbatchTest : public ::testing::TestWithParam<int> {};

TEST_P(NbatchTest, AllNbatchValuesCorrect) {
  auto rt = MakeRuntime();
  TreeOptions options;
  options.gc_quantum_ops = 0;
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

INSTANTIATE_TEST_SUITE_P(Nbatch0To5, NbatchTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace cclbt::core
