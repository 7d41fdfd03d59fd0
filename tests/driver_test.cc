// Tests for the benchmark driver: determinism of the virtual-time model,
// workload composition, value/key indirection paths, latency collection,
// and the expected qualitative relations the paper's claims rest on.
#include <string>

#include <gtest/gtest.h>

#include "src/bench/driver.h"

namespace cclbt::bench {
namespace {

RunConfig SmallConfig(OpType op = OpType::kInsert) {
  RunConfig config;
  config.threads = 8;
  config.warm_keys = 20'000;
  config.ops = 20'000;
  config.op = op;
  return config;
}

// Deterministic tree config: the background GC thread runs on wall-clock
// time and would make run-to-run counters nondeterministic.
IndexConfig QuietTree() {
  IndexConfig config;
  config.tree.background_gc = false;
  return config;
}

TEST(Driver, DeterministicAcrossRuns) {
  RunConfig config = SmallConfig();
  RunResult a = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  RunResult b = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  EXPECT_DOUBLE_EQ(a.mops, b.mops);
  EXPECT_EQ(a.stats.media_write_bytes, b.stats.media_write_bytes);
  EXPECT_EQ(a.stats.line_flushes, b.stats.line_flushes);
}

TEST(Driver, SeedChangesWorkloadButNotScaleOfResults) {
  // ADR: a 4 KB CXL page buffer absorbs this small run, so neither seed
  // writes any media bytes.
  RunConfig a_config = SmallConfig(OpType::kUpdate);
  a_config.backend = pmsim::MediaBackend::kAdrOptane;
  RunConfig b_config = a_config;
  b_config.seed = 12345;
  RunResult a = RunIndexWorkload("fptree", a_config, {}, 1ULL << 30);
  RunResult b = RunIndexWorkload("fptree", b_config, {}, 1ULL << 30);
  EXPECT_NE(a.stats.media_write_bytes, b.stats.media_write_bytes);
  EXPECT_NEAR(a.mops, b.mops, a.mops * 0.2);
}

TEST(Driver, MoreThreadsDoNotReduceTotalWorkAccounting) {
  RunConfig config = SmallConfig();
  config.threads = 1;
  RunResult one = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  config.threads = 32;
  RunResult many = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  EXPECT_EQ(one.stats.user_bytes, many.stats.user_bytes);
  // Throughput should not degrade catastrophically with threads.
  EXPECT_GT(many.mops, one.mops * 0.8);
}

TEST(Driver, LatencyCollectionCoversAllOps) {
  RunConfig config = SmallConfig();
  config.metrics = true;
  RunResult result = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  EXPECT_EQ(result.latency.Count(), config.ops);
  EXPECT_GT(result.latency.Percentile(50), 0u);
  EXPECT_LE(result.latency.Percentile(50), result.latency.Percentile(99.9));
}

TEST(Driver, ZipfianConcentratesWritesOnFewerXplines) {
  RunConfig uniform = SmallConfig();
  RunConfig zipf = SmallConfig();
  zipf.dist = KeyDistribution::kZipfian;
  zipf.zipf_theta = 0.99;
  RunResult u = RunIndexWorkload("fptree", uniform, {}, 1ULL << 30);
  RunResult z = RunIndexWorkload("fptree", zipf, {}, 1ULL << 30);
  // Hot keys combine in the XPBuffer: Zipfian XBI must be lower (Fig 3 vs 4).
  EXPECT_LT(z.xbi_amplification, u.xbi_amplification);
}

TEST(Driver, LargeValuesGoOutOfBand) {
  RunConfig config = SmallConfig();
  config.backend = pmsim::MediaBackend::kAdrOptane;  // the bound assumes 256 B XPLines
  config.value_bytes = 128;
  config.warm_keys = 5'000;
  config.ops = 5'000;
  RunResult result = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  // Value blobs dominate user bytes; amplification must drop well below the
  // 8 B-value case (paper Fig. 15(c)'s rationale).
  EXPECT_EQ(result.stats.user_bytes, config.ops * (8 + 128));
  EXPECT_LT(result.xbi_amplification, 6.0);
}

TEST(Driver, VariableKeysChargeBlobReads) {
  RunConfig plain = SmallConfig();
  plain.warm_keys = 5'000;
  plain.ops = 5'000;
  RunConfig varkey = plain;
  varkey.key_bytes = 64;
  RunResult p = RunIndexWorkload("fptree", plain, {}, 1ULL << 30);
  RunResult v = RunIndexWorkload("fptree", varkey, {}, 1ULL << 30);
  EXPECT_LT(v.mops, p.mops);  // pointer chasing slows everyone (Fig 15(b))
}

TEST(Driver, ScanOpsProduceNoUserWriteBytes) {
  RunConfig config = SmallConfig(OpType::kScan);
  config.ops = 1'000;
  RunResult result = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  EXPECT_EQ(result.stats.user_bytes, 0u);
  EXPECT_GT(result.mops, 0.0);
}

TEST(Driver, YcsbMixRunsAllOpTypes) {
  RunConfig config = SmallConfig();
  config.mix = &kYcsbInsertIntensive;
  RunResult result = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  // ~75% of ops write 16 B of user data.
  double writes = static_cast<double>(result.stats.user_bytes) / 16.0;
  EXPECT_NEAR(writes / static_cast<double>(config.ops), 0.75, 0.05);
}

TEST(Driver, OsParallelModeProducesSaneResults) {
  RunConfig config = SmallConfig();
  config.threads = 4;
  config.os_parallel = true;
  RunResult result = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  EXPECT_GT(result.mops, 0.0);
  EXPECT_EQ(result.stats.user_bytes, config.ops * 16);
}

TEST(Driver, OsParallelWarnsOnDroppedSequentialFeatures) {
  // gc_epoch_ops and the metrics epoch series both require sequential
  // scheduling; requesting them under os_parallel used to be silently
  // ignored. The run must now surface one diagnostic per dropped feature.
  RunConfig config = SmallConfig();
  config.threads = 4;
  config.os_parallel = true;
  config.gc_epoch_ops = 1'000;
  config.metrics = true;
  RunResult result = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  ASSERT_EQ(result.warnings.size(), 2u);
  EXPECT_NE(result.warnings[0].find("gc_epoch_ops"), std::string::npos);
  EXPECT_NE(result.warnings[1].find("metrics epoch"), std::string::npos);
  EXPECT_TRUE(result.epochs.empty());

  // The same config sequentially is fully honored: no warnings, epochs
  // collected.
  config.os_parallel = false;
  RunResult sequential = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  EXPECT_TRUE(sequential.warnings.empty());
  EXPECT_FALSE(sequential.epochs.empty());
}

TEST(Driver, PresetKeysDriveWarmAndMeasure) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 1; i <= 40'000; i++) {
    keys.push_back(i * 3);
  }
  RunConfig config = SmallConfig();
  config.preset_keys = &keys;
  RunResult result = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  EXPECT_GT(result.mops, 0.0);
}

// The two headline claims of the paper as driver-level properties.
TEST(Driver, CclBeatsUnsortedLeafTreesOnXbi) {
  RunConfig config = SmallConfig();
  config.backend = pmsim::MediaBackend::kAdrOptane;  // the paper's 256 B XPLine domain
  config.threads = 32;
  RunResult ccl = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  RunResult fp = RunIndexWorkload("fptree", config, {}, 512 << 20);
  EXPECT_LT(ccl.xbi_amplification, fp.xbi_amplification * 0.7);
}

TEST(Driver, FlatstoreScansFarSlowerThanCcl) {
  RunConfig config = SmallConfig(OpType::kScan);
  config.ops = 2'000;
  config.scan_len = 100;
  RunResult ccl = RunIndexWorkload("cclbtree", config, QuietTree(), 1ULL << 30);
  RunResult flat = RunIndexWorkload("flatstore", config, {}, 1ULL << 30);
  EXPECT_GT(ccl.mops, flat.mops * 3.0);
}

}  // namespace
}  // namespace cclbt::bench
