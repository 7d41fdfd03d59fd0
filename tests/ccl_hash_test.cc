// Tests for CCL-Hash (the paper's §6 hash-table extension): functional
// model-check, overflow chaining, tombstones, crash recovery, GC, and the
// XBI-reduction property vs an unbuffered persistent hash.
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ccl_hash.h"
#include "tests/crash_util.h"

namespace cclbt::core {
namespace {

std::unique_ptr<kvindex::Runtime> MakeRuntime(
    size_t pool = 512 << 20, pmsim::MediaBackend backend = pmsim::MediaBackend::kAuto) {
  kvindex::RuntimeOptions options;
  options.device.pool_bytes = pool;
  options.device.backend = backend;
  return std::make_unique<kvindex::Runtime>(options);
}

CclHashTable::Options SmallTable(size_t buckets = 1 << 12) {
  CclHashTable::Options options;
  options.num_buckets = buckets;
  return options;
}

TEST(CclHash, InsertLookupRemove) {
  auto rt = MakeRuntime();
  CclHashTable table(*rt, SmallTable());
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
  CclHashTable table(*rt, SmallTable());
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
  CclHashTable table(*rt, SmallTable(16));
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
  CclHashTable::Options options = SmallTable();
  std::map<uint64_t, uint64_t> model;
  {
    CclHashTable table(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    Rng rng(73);
    for (int i = 0; i < 30000; i++) {
      uint64_t key = Mix64(rng.NextBounded(6000) + 1) | 1;
      uint64_t value = rng.Next() | 1;
      table.Upsert(key, value);
      model[key] = value;
    }
  }
  auto table = testutil::CrashAndRecoverHash(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (const auto& [key, value] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(table->Lookup(key, &got)) << "lost key " << key;
    EXPECT_EQ(got, value);
  }
}

TEST(CclHash, DeletesSurviveCrash) {
  auto rt = MakeRuntime();
  CclHashTable::Options options = SmallTable();
  {
    CclHashTable table(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    for (uint64_t k = 1; k <= 2000; k++) {
      table.Upsert(k, k);
    }
    for (uint64_t k = 1; k <= 2000; k += 2) {
      table.Remove(k);
    }
  }
  auto table = testutil::CrashAndRecoverHash(*rt, options, /*torn=*/true, /*torn_seed=*/99);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (uint64_t k = 1; k <= 2000; k++) {
    uint64_t value = 0;
    ASSERT_EQ(table->Lookup(k, &value), k % 2 == 0) << "key " << k;
  }
}

TEST(CclHash, GcReclaimsLogsAndPreservesData) {
  auto rt = MakeRuntime();
  CclHashTable table(*rt, SmallTable());
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
  CclHashTable::Options options = SmallTable();
  std::map<uint64_t, uint64_t> model;
  {
    CclHashTable table(*rt, options);
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
  auto table = testutil::CrashAndRecoverHash(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  for (const auto& [key, value] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(table->Lookup(key, &got)) << "lost key " << key;
    EXPECT_EQ(got, value);
  }
}

TEST(CclHash, BufferingReducesMediaWrites) {
  // The §6 claim itself: buffered buckets write fewer XPLines than direct
  // bucket writes for the same workload. The claim is about combining in
  // 256 B XPLines, so ADR: eADR scrambles the write order and a 4 KB CXL
  // page changes the granularity.
  auto measure = [](bool buffering) {
    auto rt = MakeRuntime(512 << 20, pmsim::MediaBackend::kAdrOptane);
    CclHashTable::Options options = SmallTable(1 << 12);
    options.buffering = buffering;
    CclHashTable table(*rt, options);
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    auto before = rt->device().stats().Snapshot();
    Rng rng(77);
    for (int i = 0; i < 50000; i++) {
      table.Upsert(Mix64(rng.NextBounded(30000)) | 1, 1);
    }
    rt->device().DrainBuffers();
    return rt->device().stats().Snapshot().Delta(before).media_write_bytes;
  };
  uint64_t unbuffered = measure(false);
  uint64_t buffered = measure(true);
  EXPECT_LT(buffered, unbuffered * 85 / 100);
}

}  // namespace
}  // namespace cclbt::core
