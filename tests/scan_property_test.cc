// Property tests for range scans across all indexes: every scan result must
// be sorted, duplicate-free, complete w.r.t. a model, and stable under
// concurrent writers (sortedness + no phantom keys).
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/bench/index_factory.h"
#include "src/common/rng.h"

namespace cclbt::bench {
namespace {

std::unique_ptr<kvindex::Runtime> MakeRuntime() {
  kvindex::RuntimeOptions options;
  options.device.pool_bytes = 512 << 20;
  return std::make_unique<kvindex::Runtime>(options);
}

class ScanPropertyTest : public ::testing::TestWithParam<std::string> {
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

TEST_P(ScanPropertyTest, RandomScansMatchModel) {
  std::map<uint64_t, uint64_t> model;
  Rng rng(41);
  for (int i = 0; i < 15000; i++) {
    uint64_t key = rng.NextBounded(40000) + 1;
    if (rng.NextBounded(8) < 7) {
      uint64_t value = rng.Next() | 1;
      index_->Upsert(key, value);
      model[key] = value;
    } else {
      index_->Remove(key);
      model.erase(key);
    }
  }
  std::vector<kvindex::KeyValue> out(256);
  for (int probe = 0; probe < 200; probe++) {
    uint64_t start = rng.NextBounded(42000);
    size_t want = 1 + rng.NextBounded(200);
    size_t got = index_->Scan(start, want, out.data());
    auto it = model.lower_bound(start);
    size_t expect = 0;
    for (; it != model.end() && expect < want; ++it, ++expect) {
      ASSERT_LT(expect, got) << GetParam() << " scan(" << start << "," << want
                             << ") too short at " << expect;
      EXPECT_EQ(out[expect].key, it->first) << GetParam();
      EXPECT_EQ(out[expect].value, it->second) << GetParam();
    }
    EXPECT_EQ(got, expect) << GetParam() << " scan returned extra entries";
  }
}

TEST_P(ScanPropertyTest, ScansAreSortedAndDuplicateFree) {
  Rng rng(43);
  for (int i = 0; i < 20000; i++) {
    index_->Upsert(Mix64(rng.NextBounded(30000) + 1) | 1, i + 1);
  }
  std::vector<kvindex::KeyValue> out(512);
  for (int probe = 0; probe < 50; probe++) {
    uint64_t start = rng.Next() | 1;
    size_t got = index_->Scan(start, 512, out.data());
    std::set<uint64_t> seen;
    for (size_t i = 0; i < got; i++) {
      EXPECT_GE(out[i].key, start) << GetParam();
      if (i > 0) {
        EXPECT_GT(out[i].key, out[i - 1].key) << GetParam() << " unsorted or dup at " << i;
      }
      EXPECT_TRUE(seen.insert(out[i].key).second) << GetParam();
    }
  }
}

TEST_P(ScanPropertyTest, ScansUnderConcurrentInsertsStaySane) {
  // Writers insert only EVEN keys from a disjoint upper range; a concurrent
  // scanner must always observe sorted, phantom-free results (keys either
  // pre-loaded or from the writer set).
  for (uint64_t k = 2; k <= 20000; k += 2) {
    index_->Upsert(k, k);
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    pmsim::ThreadContext ctx(rt_->device(), 0, 1);
    for (uint64_t k = 20002; k <= 60000 && !stop.load(); k += 2) {
      index_->Upsert(k, k);
    }
    stop.store(true);
  });
  std::vector<kvindex::KeyValue> out(128);
  Rng rng(45);
  int violations = 0;
  while (!stop.load()) {
    uint64_t start = rng.NextBounded(50000) + 1;
    size_t got = index_->Scan(start, 128, out.data());
    for (size_t i = 0; i < got; i++) {
      if (out[i].key % 2 != 0 || out[i].key < start ||
          (i > 0 && out[i].key <= out[i - 1].key)) {
        violations++;
      }
    }
  }
  writer.join();
  EXPECT_EQ(violations, 0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, ScanPropertyTest,
                         ::testing::Values("cclbtree", "fptree", "lbtree", "pactree", "fastfair",
                                           "utree", "dptree", "flatstore", "lsmstore"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           return param_info.param;
                         });

}  // namespace
}  // namespace cclbt::bench
