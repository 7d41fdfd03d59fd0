// Randomized long-run fuzz of CCL-BTree against a std::map model: mixed
// upserts/deletes/lookups/scans with periodic GC, crash/recovery rounds and
// invariant checks. Each seed is an independent instantiation; scenarios
// that once triggered real bugs (stale buffer cache after split+merge,
// merge timestamps masking unflushed entries) are exercised statistically
// here.
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ccl_btree.h"
#include "tests/crash_util.h"

namespace cclbt::core {
namespace {

class CclFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CclFuzzTest, MixedOpsWithGcAndCrashesMatchModel) {
  kvindex::RuntimeOptions runtime_options;
  runtime_options.device.pool_bytes = 512 << 20;
  kvindex::Runtime runtime(runtime_options);
  TreeOptions options;
  options.gc_quantum_ops = 0;
  options.nbatch = 1 + GetParam() % 5;  // vary N_batch across seeds

  auto tree = std::make_unique<CclBTree>(runtime, options);
  auto ctx = std::make_unique<pmsim::ThreadContext>(runtime.device(), 0, 0);
  std::map<uint64_t, uint64_t> model;
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  std::vector<kvindex::KeyValue> scan_out(64);

  const int kOps = 60'000;
  const uint64_t kKeySpace = 12'000;
  for (int i = 0; i < kOps; i++) {
    uint64_t key = rng.NextBounded(kKeySpace) + 1;
    switch (rng.NextBounded(20)) {
      case 0:
      case 1:
      case 2: {  // delete
        tree->Remove(key);
        model.erase(key);
        break;
      }
      case 3: {  // point lookup spot-check
        uint64_t value = 0;
        bool found = tree->Lookup(key, &value);
        auto it = model.find(key);
        ASSERT_EQ(found, it != model.end()) << "seed " << GetParam() << " key " << key;
        if (found) {
          ASSERT_EQ(value, it->second);
        }
        break;
      }
      case 4: {  // scan spot-check
        size_t got = tree->Scan(key, 32, scan_out.data());
        auto it = model.lower_bound(key);
        for (size_t j = 0; j < got; j++, ++it) {
          ASSERT_NE(it, model.end()) << "seed " << GetParam();
          ASSERT_EQ(scan_out[j].key, it->first) << "seed " << GetParam() << " at " << j;
          ASSERT_EQ(scan_out[j].value, it->second);
        }
        break;
      }
      case 5: {  // GC round
        if (i % 4096 == 5) {
          tree->RunGcOnce();
        }
        break;
      }
      default: {  // upsert
        uint64_t value = rng.Next() | 1;
        tree->Upsert(key, value);
        model[key] = value;
        break;
      }
    }
    // Periodic crash + recovery (every ~20k ops).
    if (i > 0 && i % 20'000 == 0) {
      ctx.reset();
      tree.reset();
      tree = testutil::CrashAndRecoverTree(
          runtime, options, 1 + GetParam() % 3, /*torn=*/true,
          /*torn_seed=*/static_cast<uint64_t>(GetParam()) * 31 + static_cast<uint64_t>(i));
      ctx = std::make_unique<pmsim::ThreadContext>(runtime.device(), 0, 0);
      ASSERT_TRUE(tree->CheckInvariants()) << "seed " << GetParam() << " after crash at " << i;
    }
  }

  // Full final audit.
  ASSERT_TRUE(tree->CheckInvariants());
  for (uint64_t key = 1; key <= kKeySpace; key++) {
    uint64_t value = 0;
    bool found = tree->Lookup(key, &value);
    auto it = model.find(key);
    ASSERT_EQ(found, it != model.end()) << "seed " << GetParam() << " key " << key;
    if (found) {
      ASSERT_EQ(value, it->second) << "seed " << GetParam() << " key " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CclFuzzTest, ::testing::Range(0, 6));

TEST(CclEdgeCases, ExtremeKeysWork) {
  kvindex::RuntimeOptions runtime_options;
  runtime_options.device.pool_bytes = 128 << 20;
  kvindex::Runtime runtime(runtime_options);
  TreeOptions options;
  options.gc_quantum_ops = 0;
  CclBTree tree(runtime, options);
  pmsim::ThreadContext ctx(runtime.device(), 0, 0);
  tree.Upsert(1, 10);
  tree.Upsert(~0ULL, 20);          // max key
  tree.Upsert(~0ULL - 1, 30);
  uint64_t value = 0;
  EXPECT_TRUE(tree.Lookup(~0ULL, &value));
  EXPECT_EQ(value, 20u);
  kvindex::KeyValue out[4];
  EXPECT_EQ(tree.Scan(~0ULL - 1, 4, out), 2u);
}

TEST(CclEdgeCases, SequentialInsertsSplitRightwards) {
  kvindex::RuntimeOptions runtime_options;
  runtime_options.device.pool_bytes = 256 << 20;
  kvindex::Runtime runtime(runtime_options);
  TreeOptions options;
  options.gc_quantum_ops = 0;
  CclBTree tree(runtime, options);
  pmsim::ThreadContext ctx(runtime.device(), 0, 0);
  for (uint64_t k = 1; k <= 50'000; k++) {
    tree.Upsert(k, k);
  }
  EXPECT_TRUE(tree.CheckInvariants());
  uint64_t value = 0;
  EXPECT_TRUE(tree.Lookup(1, &value));
  EXPECT_TRUE(tree.Lookup(50'000, &value));
}

TEST(CclEdgeCases, ReinsertAfterMassDeleteReusesLeaves) {
  kvindex::RuntimeOptions runtime_options;
  runtime_options.device.pool_bytes = 256 << 20;
  kvindex::Runtime runtime(runtime_options);
  TreeOptions options;
  options.gc_quantum_ops = 0;
  CclBTree tree(runtime, options);
  pmsim::ThreadContext ctx(runtime.device(), 0, 0);
  for (int round = 0; round < 3; round++) {
    for (uint64_t k = 1; k <= 20'000; k++) {
      tree.Upsert(k, k + static_cast<uint64_t>(round));
    }
    tree.FlushAll();
    for (uint64_t k = 1; k <= 20'000; k++) {
      tree.Remove(k);
    }
    tree.FlushAll();
  }
  EXPECT_GT(tree.merges(), 0u);
  EXPECT_TRUE(tree.CheckInvariants());
  uint64_t value = 0;
  EXPECT_FALSE(tree.Lookup(500, &value));
}

}  // namespace
}  // namespace cclbt::core
