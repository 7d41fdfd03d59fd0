// Unit tests for the workload & measurement toolkit (src/common).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fingerprint.h"
#include "src/common/keyspace.h"
#include "src/common/ordo.h"
#include "src/common/rng.h"
#include "src/common/ycsb.h"
#include "src/common/zipfian.h"

namespace cclbt {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; i++) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, Mix64IsBijectiveOnSample) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 10000; i++) {
    outputs.insert(Mix64(i));
  }
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(Zipfian, RankZeroIsHottest) {
  ZipfianGenerator zipf(1000000, 0.9, 3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; i++) {
    counts[zipf.NextRank()]++;
  }
  // Rank 0 must be sampled far more than a uniform share.
  EXPECT_GT(counts[0], 100000 / 1000);
}

TEST(Zipfian, SkewIncreasesHeadMass) {
  auto head_mass = [](double theta) {
    ZipfianGenerator zipf(100000, theta, 5);
    int head = 0;
    for (int i = 0; i < 50000; i++) {
      if (zipf.NextRank() < 100) {
        head++;
      }
    }
    return head;
  };
  EXPECT_LT(head_mass(0.5), head_mass(0.99));
}

TEST(Zipfian, RanksWithinRange) {
  ZipfianGenerator zipf(5000, 0.99, 11);
  for (int i = 0; i < 100000; i++) {
    EXPECT_LT(zipf.NextRank(), 5000u);
  }
}

TEST(Zipfian, ScrambledSpreadsHotKeys) {
  ZipfianGenerator zipf(1 << 20, 0.9, 13);
  // The two hottest scrambled keys should not be adjacent.
  uint64_t k0 = zipf.Scramble(0);
  uint64_t k1 = zipf.Scramble(1);
  EXPECT_GT(std::max(k0, k1) - std::min(k0, k1), 1u);
}

// Workers of one run draw from reseeded copies of a shared shape; each copy
// must draw exactly the ranks a generator built from scratch with its seed
// draws, whatever the shape's own stream did, on both sides of the
// exact-zeta limit.
TEST(Zipfian, ReseededCopyMatchesFreshGenerator) {
  for (uint64_t n : {uint64_t{40'000}, ZipfianGenerator::kExactZetaLimit + 123'457}) {
    ZipfianGenerator shape(n, 0.9);
    shape.NextRank();
    for (uint64_t seed : {uint64_t{7}, uint64_t{1'000'003}}) {
      ZipfianGenerator fresh(n, 0.9, seed);
      ZipfianGenerator copy(shape, seed);
      for (int i = 0; i < 20'000; i++) {
        ASSERT_EQ(copy.NextRank(), fresh.NextRank()) << "n=" << n << " seed=" << seed << " i=" << i;
      }
    }
  }
}

// Histogram tests live in tests/metrics_test.cc: the one log-bucketed
// histogram implementation moved to src/metrics/histogram.h.

TEST(Ordo, MonotonicWithinSocket) {
  OrdoClock clock(100);
  uint64_t prev = 0;
  for (int i = 0; i < 1000; i++) {
    uint64_t now = clock.Now(0);
    EXPECT_GT(now, prev);
    prev = now;
  }
}

TEST(Ordo, CompareRespectsBoundary) {
  OrdoClock clock(1000);
  EXPECT_EQ(clock.Compare(5000, 1000), 1);
  EXPECT_EQ(clock.Compare(1000, 5000), -1);
  EXPECT_EQ(clock.Compare(1000, 1500), 0);  // within uncertainty
}

TEST(Ordo, NowAfterBoundaryOrdersGlobally) {
  OrdoClock clock(1000);
  uint64_t t1 = clock.Now(1);
  uint64_t t2 = clock.NowAfterBoundary(0);
  EXPECT_EQ(clock.Compare(t2, t1), 1);
}

TEST(Fingerprint, DeterministicAndSpread) {
  std::set<uint8_t> seen;
  for (uint64_t k = 1; k <= 1000; k++) {
    EXPECT_EQ(Fingerprint8(k), Fingerprint8(k));
    seen.insert(Fingerprint8(k));
  }
  // Sequential keys should cover most of the byte range.
  EXPECT_GT(seen.size(), 200u);
}

TEST(KeyStream, UniformHasNoCollisionsInSpace) {
  KeyStream stream(KeyDistribution::kUniform, 100000);
  std::set<uint64_t> keys;
  for (uint64_t i = 0; i < 100000; i++) {
    keys.insert(stream.Key(i));
  }
  EXPECT_EQ(keys.size(), 100000u);
}

TEST(KeyStream, SequentialIsMonotone) {
  KeyStream stream(KeyDistribution::kSequential, 1000);
  for (uint64_t i = 1; i < 1000; i++) {
    EXPECT_GT(stream.Key(i), stream.Key(i - 1));
  }
}

TEST(KeyStream, ZipfianRepeatsHotKeys) {
  KeyStream stream(KeyDistribution::kZipfian, 1 << 20, 0.99);
  std::map<uint64_t, int> counts;
  for (uint64_t i = 0; i < 100000; i++) {
    counts[stream.Key(i)]++;
  }
  int max_count = 0;
  for (const auto& [key, count] : counts) {
    max_count = std::max(max_count, count);
  }
  EXPECT_GT(max_count, 100);  // hot key dominates
}

class SosdDatasetTest : public ::testing::TestWithParam<SosdDataset> {};

TEST_P(SosdDatasetTest, ExactSizeUniqueNonZero) {
  auto keys = BuildSosdLikeDataset(GetParam(), 50000);
  EXPECT_EQ(keys.size(), 50000u);
  std::set<uint64_t> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
  EXPECT_EQ(unique.count(0), 0u);
}

TEST_P(SosdDatasetTest, Deterministic) {
  auto a = BuildSosdLikeDataset(GetParam(), 10000, 9);
  auto b = BuildSosdLikeDataset(GetParam(), 10000, 9);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, SosdDatasetTest,
                         ::testing::Values(SosdDataset::kAmzn, SosdDataset::kOsm,
                                           SosdDataset::kWiki, SosdDataset::kFacebook),
                         [](const auto& name_info) { return SosdDatasetName(name_info.param); });

TEST(Ycsb, MixFractionsRoughlyRespected) {
  YcsbOpPicker picker(kYcsbInsertIntensive, 17);
  int inserts = 0;
  int reads = 0;
  for (int i = 0; i < 100000; i++) {
    OpType op = picker.Next();
    inserts += op == OpType::kInsert;
    reads += op == OpType::kRead;
  }
  EXPECT_NEAR(inserts / 100000.0, 0.75, 0.02);
  EXPECT_NEAR(reads / 100000.0, 0.25, 0.02);
}

TEST(Ycsb, ScanInsertMix) {
  YcsbOpPicker picker(kYcsbScanInsert, 23);
  int scans = 0;
  for (int i = 0; i < 100000; i++) {
    scans += picker.Next() == OpType::kScan;
  }
  EXPECT_NEAR(scans / 100000.0, 0.95, 0.02);
}

}  // namespace
}  // namespace cclbt
