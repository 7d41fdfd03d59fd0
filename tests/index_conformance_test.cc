// Conformance suite run against EVERY index (CCL-BTree and all baselines):
// model-checked upsert/lookup/remove, ordered scans, update semantics, and a
// multi-threaded smoke test. Keeping the baselines honest matters — the
// paper's comparisons are only meaningful if every competitor is correct.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/bench/index_factory.h"
#include "src/common/rng.h"

namespace cclbt::bench {
namespace {

std::unique_ptr<kvindex::Runtime> MakeRuntime(
    pmsim::MediaBackend backend = pmsim::MediaBackend::kAuto) {
  kvindex::RuntimeOptions options;
  options.device.pool_bytes = 512 << 20;
  options.device.num_sockets = 2;
  options.device.dimms_per_socket = 2;
  options.device.backend = backend;
  return std::make_unique<kvindex::Runtime>(options);
}

class IndexConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    rt_ = MakeRuntime();
    IndexConfig config;
    config.tree.gc_quantum_ops = 0;
    index_ = MakeIndex(GetParam(), *rt_, config);
    ctx_ = std::make_unique<pmsim::ThreadContext>(rt_->device(), 0, 0);
  }

  std::unique_ptr<kvindex::Runtime> rt_;
  std::unique_ptr<kvindex::KvIndex> index_;
  std::unique_ptr<pmsim::ThreadContext> ctx_;
};

TEST_P(IndexConformanceTest, InsertLookupBasic) {
  index_->Upsert(100, 1);
  index_->Upsert(200, 2);
  uint64_t value = 0;
  EXPECT_TRUE(index_->Lookup(100, &value));
  EXPECT_EQ(value, 1u);
  EXPECT_TRUE(index_->Lookup(200, &value));
  EXPECT_EQ(value, 2u);
  EXPECT_FALSE(index_->Lookup(150, &value));
}

TEST_P(IndexConformanceTest, UpdateReplacesValue) {
  index_->Upsert(7, 1);
  index_->Upsert(7, 2);
  index_->Upsert(7, 3);
  uint64_t value = 0;
  ASSERT_TRUE(index_->Lookup(7, &value));
  EXPECT_EQ(value, 3u);
}

TEST_P(IndexConformanceTest, RemoveHidesKey) {
  index_->Upsert(42, 42);
  index_->Remove(42);
  uint64_t value = 0;
  EXPECT_FALSE(index_->Lookup(42, &value));
  // Re-insert after remove works.
  index_->Upsert(42, 43);
  ASSERT_TRUE(index_->Lookup(42, &value));
  EXPECT_EQ(value, 43u);
}

TEST_P(IndexConformanceTest, SequentialBulkThenVerify) {
  const uint64_t kN = 20000;
  for (uint64_t k = 1; k <= kN; k++) {
    index_->Upsert(k, k * 3);
  }
  for (uint64_t k = 1; k <= kN; k += 7) {
    uint64_t value = 0;
    ASSERT_TRUE(index_->Lookup(k, &value)) << "key " << k;
    EXPECT_EQ(value, k * 3);
  }
}

TEST_P(IndexConformanceTest, RandomModelCheck) {
  std::map<uint64_t, uint64_t> model;
  Rng rng(12);
  for (int i = 0; i < 20000; i++) {
    uint64_t key = rng.NextBounded(5000) + 1;
    if (rng.NextBounded(10) < 8) {
      uint64_t value = rng.Next() | 1;
      index_->Upsert(key, value);
      model[key] = value;
    } else {
      index_->Remove(key);
      model.erase(key);
    }
  }
  index_->FlushAll();
  for (uint64_t key = 1; key <= 5000; key++) {
    uint64_t value = 0;
    bool found = index_->Lookup(key, &value);
    auto it = model.find(key);
    ASSERT_EQ(found, it != model.end()) << GetParam() << " key " << key;
    if (found) {
      EXPECT_EQ(value, it->second) << GetParam() << " key " << key;
    }
  }
}

TEST_P(IndexConformanceTest, ScanSortedAndComplete) {
  for (uint64_t k = 1; k <= 2000; k++) {
    index_->Upsert(k * 2, k);
  }
  std::vector<kvindex::KeyValue> out(200);
  size_t n = index_->Scan(501, 100, out.data());
  ASSERT_EQ(n, 100u) << GetParam();
  EXPECT_EQ(out[0].key, 502u);
  for (size_t i = 1; i < n; i++) {
    EXPECT_EQ(out[i].key, out[i - 1].key + 2) << GetParam() << " at " << i;
  }
}

TEST_P(IndexConformanceTest, ScanAfterDeletesSkipsRemoved) {
  for (uint64_t k = 1; k <= 300; k++) {
    index_->Upsert(k, k);
  }
  for (uint64_t k = 1; k <= 300; k += 3) {
    index_->Remove(k);
  }
  std::vector<kvindex::KeyValue> out(400);
  size_t n = index_->Scan(1, 400, out.data());
  EXPECT_EQ(n, 200u) << GetParam();
  for (size_t i = 0; i < n; i++) {
    EXPECT_NE(out[i].key % 3, 1u) << GetParam();
  }
}

TEST_P(IndexConformanceTest, ScanShortAtTail) {
  for (uint64_t k = 1; k <= 50; k++) {
    index_->Upsert(k, k);
  }
  std::vector<kvindex::KeyValue> out(100);
  EXPECT_EQ(index_->Scan(40, 100, out.data()), 11u);
  EXPECT_EQ(index_->Scan(10000, 100, out.data()), 0u);
}

TEST_P(IndexConformanceTest, FootprintIsPlausible) {
  for (uint64_t k = 1; k <= 30000; k++) {
    index_->Upsert(Mix64(k) | 1, k);
  }
  auto footprint = index_->Footprint();
  EXPECT_GT(footprint.pm_bytes + footprint.dram_bytes, 30000u * 16)
      << GetParam() << " stores less than the raw data";
}

TEST_P(IndexConformanceTest, ConcurrentMixedSmoke) {
  const int kThreads = 4;
  const uint64_t kPerThread = 8000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([this, t] {
      pmsim::ThreadContext ctx(rt_->device(), t % 2, t + 1);
      Rng rng(static_cast<uint64_t>(t) + 500);
      for (uint64_t i = 0; i < kPerThread; i++) {
        uint64_t key = static_cast<uint64_t>(t) * kPerThread + i + 1;
        index_->Upsert(Mix64(key) | 1, key);
        if (i % 16 == 0) {
          uint64_t value = 0;
          index_->Lookup(Mix64(rng.NextBounded(key) + 1) | 1, &value);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; t++) {
    for (uint64_t i = 0; i < kPerThread; i += 211) {
      uint64_t key = static_cast<uint64_t>(t) * kPerThread + i + 1;
      uint64_t value = 0;
      ASSERT_TRUE(index_->Lookup(Mix64(key) | 1, &value)) << GetParam();
      EXPECT_EQ(value, key);
    }
  }
}

// Every index opens a trace::TraceScope on its write paths, so all but a
// sliver of its media bytes (the pool format) are charged to the layer that
// wrote them rather than to `other`. Pinned to ADR: under eADR the modeled
// CPU cache drains outside any scope, so its residue lands in `other`
// whatever the index does.
TEST_P(IndexConformanceTest, MediaWritesAreAttributedToComponents) {
  ctx_.reset();
  index_.reset();
  rt_ = MakeRuntime(pmsim::MediaBackend::kAdrOptane);
  IndexConfig config;
  config.tree.gc_quantum_ops = 0;
  index_ = MakeIndex(GetParam(), *rt_, config);
  ctx_ = std::make_unique<pmsim::ThreadContext>(rt_->device(), 0, 0);
  Rng rng(29);
  for (int i = 0; i < 20000; i++) {
    uint64_t key = Mix64(rng.NextBounded(5000) + 1) | 1;
    if (rng.NextBounded(10) < 8) {
      index_->Upsert(key, rng.Next() | 1);
    } else {
      index_->Remove(key);
    }
  }
  index_->FlushAll();
  rt_->device().DrainBuffers();
  pmsim::StatsSnapshot stats = rt_->device().stats().Snapshot();
  ASSERT_GT(stats.media_write_bytes, 0u) << GetParam();
  EXPECT_LE(stats.media_write_bytes_for(trace::Component::kOther) * 100,
            stats.media_write_bytes)
      << GetParam() << ": " << stats.media_write_bytes_for(trace::Component::kOther) << " of "
      << stats.media_write_bytes << " media bytes unattributed";
}

// --- crash/recovery conformance ---------------------------------------------------
//
// Gated on the Recoverable capability (DESIGN.md §9): indexes that declare
// not_recoverable are skipped, not faked — recovery is never simulated by
// reformatting and replaying.

TEST_P(IndexConformanceTest, RecoveryCapabilityIsDeclaredHonestly) {
  const bool expect_recoverable = GetParam() == "cclbtree" || GetParam() == "fastfair";
  EXPECT_EQ(index_->recoverable(), expect_recoverable) << GetParam();
  if (!index_->recoverable()) {
    // Torn tolerance is meaningless without recoverability.
    EXPECT_FALSE(index_->tolerates_torn_crash()) << GetParam();
  }
}

TEST_P(IndexConformanceTest, CrashRecoveryRestoresAckedState) {
  if (!index_->recoverable()) {
    GTEST_SKIP() << GetParam() << " declares not_recoverable";
  }
  std::map<uint64_t, uint64_t> model;
  Rng rng(31);
  for (int i = 0; i < 15000; i++) {
    uint64_t key = Mix64(rng.NextBounded(4000) + 1) | 1;
    if (rng.NextBounded(10) < 8) {
      uint64_t value = rng.Next() | 1;
      index_->Upsert(key, value);
      model[key] = value;
    } else {
      index_->Remove(key);
      model.erase(key);
    }
  }
  ctx_.reset();
  index_.reset();
  rt_->device().Crash();
  std::string error;
  ASSERT_TRUE(rt_->Reopen(&error)) << error;
  IndexConfig config;
  config.tree.gc_quantum_ops = 0;
  index_ = RecoverIndex(GetParam(), *rt_, config);
  ASSERT_NE(index_, nullptr) << GetParam() << " failed to recover";
  ctx_ = std::make_unique<pmsim::ThreadContext>(rt_->device(), 0, 0);
  for (uint64_t probe = 1; probe <= 4000; probe++) {
    uint64_t key = Mix64(probe) | 1;
    uint64_t value = 0;
    bool found = index_->Lookup(key, &value);
    auto it = model.find(key);
    ASSERT_EQ(found, it != model.end()) << GetParam() << " key " << key;
    if (found) {
      EXPECT_EQ(value, it->second) << GetParam() << " key " << key;
    }
  }
}

TEST_P(IndexConformanceTest, TornCrashRecoveryRestoresAckedState) {
  if (!index_->recoverable()) {
    GTEST_SKIP() << GetParam() << " declares not_recoverable";
  }
  if (!index_->tolerates_torn_crash()) {
    GTEST_SKIP() << GetParam() << " declares torn crashes out of scope";
  }
  std::map<uint64_t, uint64_t> model;
  Rng rng(47);
  for (int i = 0; i < 12000; i++) {
    uint64_t key = Mix64(rng.NextBounded(3000) + 1) | 1;
    uint64_t value = rng.Next() | 1;
    index_->Upsert(key, value);
    model[key] = value;
  }
  ctx_.reset();
  index_.reset();
  rt_->device().CrashTorn(/*seed=*/777);
  std::string error;
  ASSERT_TRUE(rt_->Reopen(&error)) << error;
  IndexConfig config;
  config.tree.gc_quantum_ops = 0;
  index_ = RecoverIndex(GetParam(), *rt_, config);
  ASSERT_NE(index_, nullptr) << GetParam() << " failed to recover";
  ctx_ = std::make_unique<pmsim::ThreadContext>(rt_->device(), 0, 0);
  for (const auto& [key, value] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(index_->Lookup(key, &got)) << GetParam() << " lost key " << key;
    EXPECT_EQ(got, value) << GetParam() << " key " << key;
  }
}

TEST_P(IndexConformanceTest, RecoveredIndexAcceptsNewWrites) {
  if (!index_->recoverable()) {
    GTEST_SKIP() << GetParam() << " declares not_recoverable";
  }
  for (uint64_t k = 1; k <= 3000; k++) {
    index_->Upsert(k * 2, k);
  }
  ctx_.reset();
  index_.reset();
  rt_->device().Crash();
  std::string error;
  ASSERT_TRUE(rt_->Reopen(&error)) << error;
  IndexConfig config;
  config.tree.gc_quantum_ops = 0;
  index_ = RecoverIndex(GetParam(), *rt_, config);
  ASSERT_NE(index_, nullptr) << GetParam();
  ctx_ = std::make_unique<pmsim::ThreadContext>(rt_->device(), 0, 0);
  for (uint64_t k = 1; k <= 3000; k++) {
    index_->Upsert(k * 2 + 1, k);
  }
  std::vector<kvindex::KeyValue> out(100);
  size_t n = index_->Scan(1000, 100, out.data());
  ASSERT_EQ(n, 100u) << GetParam();
  for (size_t i = 1; i < n; i++) {
    EXPECT_EQ(out[i].key, out[i - 1].key + 1) << GetParam() << " at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, IndexConformanceTest,
                         ::testing::Values("cclbtree", "fptree", "lbtree", "pactree", "fastfair",
                                           "utree", "dptree", "flatstore", "lsmstore"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) { return param_info.param; });

}  // namespace
}  // namespace cclbt::bench
