// Systematic crash-injection matrix (DESIGN.md §9): for every scheduled
// fence, power-fail the workload at exactly that fence, reopen the pool,
// recover the index and verify the durability oracle — every durably
// acknowledged KV present with its exact value, torn lines old-or-new but
// never garbage. The whole matrix is a pure function of its seed.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/crashtest/crash_matrix.h"

namespace cclbt::crashtest {
namespace {

// Shared full-size config: all three schedule kinds over a mixed
// upsert/remove workload. Each recoverable index must clear >= 100 fired
// points.
MatrixConfig FullConfig(const std::string& index) {
  MatrixConfig config;
  config.index = index;
  config.seed = 1;
  config.ops = 2000;
  config.key_space = 700;
  config.nth = 73;          // every-Nth sweep over the whole run
  config.random_points = 55;  // seeded-random draws
  config.window_len = 24;   // exhaustive window centred on the workload
  config.torn = true;       // honoured only if the index tolerates torn lines
  return config;
}

void ExpectMatrixClean(const MatrixResult& result, uint64_t min_points) {
  SCOPED_TRACE("crash_points=" + std::to_string(result.crash_points) +
               " gc_rounds_probe=" + std::to_string(result.gc_rounds_probe) +
               " gc_window_points=" + std::to_string(result.gc_window_points));
  for (const std::string& diag : result.diagnostics) {
    ADD_FAILURE() << diag;
  }
  EXPECT_TRUE(result.index_recoverable);
  EXPECT_EQ(result.reopen_failures, 0u);
  EXPECT_EQ(result.recover_failures, 0u);
  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(result.stale, 0u);
  EXPECT_EQ(result.garbage, 0u);
  EXPECT_EQ(result.invariant_failures, 0u);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(result.crash_points, min_points);
  EXPECT_GT(result.keys_checked, 0u);
}

TEST(BuildSchedule, CoversAllThreeKindsDeterministically) {
  MatrixConfig config = FullConfig("cclbtree");
  const uint64_t total_fences = 3000;
  auto points = BuildSchedule(config, total_fences, /*torn_allowed=*/true);
  auto again = BuildSchedule(config, total_fences, /*torn_allowed=*/true);
  ASSERT_EQ(points.size(), again.size());
  for (size_t i = 0; i < points.size(); i++) {
    EXPECT_EQ(points[i].fence_target, again[i].fence_target);
    EXPECT_EQ(points[i].torn, again[i].torn);
    EXPECT_EQ(points[i].torn_seed, again[i].torn_seed);
  }
  // every-Nth points lead the schedule.
  const uint64_t nth_points = total_fences / config.nth;
  ASSERT_GE(points.size(), nth_points + config.random_points + config.window_len);
  for (uint64_t i = 0; i < nth_points; i++) {
    EXPECT_EQ(points[i].fence_target, (i + 1) * config.nth);
  }
  // gc-window schedule: every kGcStride-th fence of each window, clamped to
  // the observed fence range.
  std::vector<GcWindow> gc_windows = {{100, 110}, {2990, 3010}};
  auto with_gc = BuildSchedule(config, total_fences, /*torn_allowed=*/true, gc_windows);
  std::vector<uint64_t> expected;
  for (uint64_t target = 100; target <= 110; target += kGcStride) {
    expected.push_back(target);
  }
  for (uint64_t target = 2990; target <= 3000; target += kGcStride) {
    expected.push_back(target);  // 3002+ fall outside total_fences
  }
  ASSERT_EQ(with_gc.size(), points.size() + expected.size());
  for (size_t i = 0; i < expected.size(); i++) {
    EXPECT_EQ(with_gc[points.size() + i].fence_target, expected[i]);
  }
  // All targets stay inside the observed fence range.
  uint64_t torn_count = 0;
  for (const CrashPoint& point : points) {
    EXPECT_GE(point.fence_target, 1u);
    EXPECT_LE(point.fence_target, total_fences);
    torn_count += point.torn;
  }
  EXPECT_GT(torn_count, 0u);
  // Torn points disappear entirely when the index does not tolerate them.
  for (const CrashPoint& point : BuildSchedule(config, total_fences, /*torn_allowed=*/false)) {
    EXPECT_FALSE(point.torn);
  }
}

TEST(CrashMatrix, CclBtreeSurvivesFullMatrix) {
  MatrixResult result = RunCrashMatrix(FullConfig("cclbtree"));
  ExpectMatrixClean(result, /*min_points=*/100);
  // CCL-BTree declares torn tolerance: both crash flavours must have run.
  EXPECT_GT(result.clean_crashes, 0u);
  EXPECT_GT(result.torn_crashes, 0u);
  // Deterministic background GC ran in the probe, and the gc-window schedule
  // crashed inside GC's own flush/fence stream — the epoch flip, the
  // relocate-to-I-log appends and the B-log release all live in these
  // windows (acceptance bar: >= 20 points inside GC activity, zero oracle
  // violations, which ExpectMatrixClean already asserted).
  EXPECT_GT(result.gc_rounds_probe, 0u);
  EXPECT_GE(result.gc_window_points, 20u);
}

// CCL-Hash (paper §6) on the same matrix: 32 buckets, so chains overflow
// and batches commit across several buckets of one chain. Its GC is the
// tree's, so the matrix crashes inside GC rounds too.
TEST(CrashMatrix, CclHashSurvivesFullMatrix) {
  MatrixResult result = RunCrashMatrix(FullConfig("cclhash"));
  ExpectMatrixClean(result, /*min_points=*/100);
  EXPECT_GT(result.clean_crashes, 0u);
  EXPECT_GT(result.torn_crashes, 0u);
  EXPECT_GT(result.gc_rounds_probe, 0u);
  EXPECT_GE(result.gc_window_points, 20u);
}

TEST(CrashMatrix, FastFairSurvivesFullMatrix) {
  MatrixResult result = RunCrashMatrix(FullConfig("fastfair"));
  ExpectMatrixClean(result, /*min_points=*/100);
  // FAST&FAIR declares torn crashes out of scope (count-based node header):
  // the matrix must downgrade every point to a clean crash, not fake it.
  EXPECT_EQ(result.torn_crashes, 0u);
}

TEST(CrashMatrix, ResultIsDeterministicFromSeed) {
  MatrixConfig config;
  config.index = "cclbtree";
  config.seed = 7;
  config.ops = 600;
  config.key_space = 200;
  config.random_points = 10;
  config.window_len = 16;
  config.torn = true;
  MatrixResult first = RunCrashMatrix(config);
  MatrixResult second = RunCrashMatrix(config);
  EXPECT_GT(first.crash_points, 0u);
  EXPECT_EQ(first.total_fences, second.total_fences);
  EXPECT_EQ(first.crash_points, second.crash_points);
  EXPECT_EQ(first.keys_checked, second.keys_checked);
  EXPECT_EQ(first.digest, second.digest);
  // A different seed reshuffles the workload and the schedule.
  config.seed = 8;
  MatrixResult other = RunCrashMatrix(config);
  EXPECT_NE(first.digest, other.digest);
}

// The eADR backend (DESIGN.md §14) has no unfenced-pending crash window:
// every acked update was made durable at its FlushLine, so the matrix must
// observe exactly zero lost acked updates across every crash point.
TEST(CrashMatrix, EadrBackendLosesNoAckedUpdates) {
  MatrixConfig config;
  config.index = "cclbtree";
  config.seed = 11;
  config.ops = 600;
  config.key_space = 200;
  config.nth = 41;
  config.random_points = 12;
  config.window_len = 16;
  config.backend = pmsim::MediaBackend::kEadr;
  MatrixResult result = RunCrashMatrix(config);
  ExpectMatrixClean(result, /*min_points=*/20);
  EXPECT_EQ(result.lost, 0u);
}

TEST(CrashMatrix, NotRecoverableIndexIsReportedHonestly) {
  MatrixConfig config;
  config.index = "lsmstore";
  config.ops = 200;
  config.key_space = 100;
  config.window_len = 8;
  MatrixResult result = RunCrashMatrix(config);
  EXPECT_FALSE(result.index_recoverable);
  EXPECT_EQ(result.crash_points, 0u);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_NE(result.diagnostics[0].find("not_recoverable"), std::string::npos);
}

}  // namespace
}  // namespace cclbt::crashtest
