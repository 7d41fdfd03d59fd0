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

// Background GC off: the counters below measure foreground work only.
IndexConfig QuietTree() {
  IndexConfig config;
  config.tree.gc_quantum_ops = 0;
  return config;
}

// The tests' device: a 1 GiB pool whose backend follows CCL_BACKEND.
pmsim::DeviceConfig Device() { return {.pool_bytes = 1ULL << 30}; }

// Tests whose bounds assume the 256 B XPLine pin ADR, so CCL_BACKEND does
// not rebind them.
pmsim::DeviceConfig AdrDevice(size_t pool_bytes = 1ULL << 30) {
  return {.pool_bytes = pool_bytes, .backend = pmsim::MediaBackend::kAdrOptane};
}

TEST(Driver, DeterministicAcrossRuns) {
  RunConfig config = SmallConfig();
  RunResult a = RunIndexWorkload("cclbtree", config, QuietTree(), Device());
  RunResult b = RunIndexWorkload("cclbtree", config, QuietTree(), Device());
  EXPECT_DOUBLE_EQ(a.mops, b.mops);
  EXPECT_EQ(a.stats.media_write_bytes, b.stats.media_write_bytes);
  EXPECT_EQ(a.stats.line_flushes, b.stats.line_flushes);
}

TEST(Driver, SeedChangesWorkloadButNotScaleOfResults) {
  // ADR: a 4 KB CXL page buffer absorbs this small run, so neither seed
  // writes any media bytes.
  RunConfig a_config = SmallConfig(OpType::kUpdate);
  RunConfig b_config = a_config;
  b_config.seed = 12345;
  RunResult a = RunIndexWorkload("fptree", a_config, {}, AdrDevice());
  RunResult b = RunIndexWorkload("fptree", b_config, {}, AdrDevice());
  EXPECT_NE(a.stats.media_write_bytes, b.stats.media_write_bytes);
  EXPECT_NEAR(a.mops, b.mops, a.mops * 0.2);
}

TEST(Driver, MoreThreadsDoNotReduceTotalWorkAccounting) {
  RunConfig config = SmallConfig();
  config.threads = 1;
  RunResult one = RunIndexWorkload("cclbtree", config, QuietTree(), Device());
  config.threads = 32;
  RunResult many = RunIndexWorkload("cclbtree", config, QuietTree(), Device());
  EXPECT_EQ(one.stats.user_bytes, many.stats.user_bytes);
  // Throughput should not degrade catastrophically with threads.
  EXPECT_GT(many.mops, one.mops * 0.8);
}

TEST(Driver, LatencyCollectionCoversAllOps) {
  RunConfig config = SmallConfig();
  config.metrics = true;
  RunResult result = RunIndexWorkload("cclbtree", config, QuietTree(), Device());
  EXPECT_EQ(result.latency.Count(), config.ops);
  EXPECT_GT(result.latency.Percentile(50), 0u);
  EXPECT_LE(result.latency.Percentile(50), result.latency.Percentile(99.9));
}

TEST(Driver, ZipfianConcentratesWritesOnFewerXplines) {
  RunConfig uniform = SmallConfig();
  RunConfig zipf = SmallConfig();
  zipf.dist = KeyDistribution::kZipfian;
  zipf.zipf_theta = 0.99;
  RunResult u = RunIndexWorkload("fptree", uniform, {}, Device());
  RunResult z = RunIndexWorkload("fptree", zipf, {}, Device());
  // Hot keys combine in the XPBuffer: Zipfian XBI must be lower (Fig 3 vs 4).
  EXPECT_LT(z.xbi_amplification, u.xbi_amplification);
}

TEST(Driver, LargeValuesGoOutOfBand) {
  RunConfig config = SmallConfig();
  config.value_bytes = 128;
  config.warm_keys = 5'000;
  config.ops = 5'000;
  // ADR: the bound assumes 256 B XPLines.
  RunResult result = RunIndexWorkload("cclbtree", config, QuietTree(), AdrDevice());
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
  RunResult p = RunIndexWorkload("fptree", plain, {}, Device());
  RunResult v = RunIndexWorkload("fptree", varkey, {}, Device());
  EXPECT_LT(v.mops, p.mops);  // pointer chasing slows everyone (Fig 15(b))
}

TEST(Driver, ScanOpsProduceNoUserWriteBytes) {
  RunConfig config = SmallConfig(OpType::kScan);
  config.ops = 1'000;
  RunResult result = RunIndexWorkload("cclbtree", config, QuietTree(), Device());
  EXPECT_EQ(result.stats.user_bytes, 0u);
  EXPECT_GT(result.mops, 0.0);
}

TEST(Driver, YcsbMixRunsAllOpTypes) {
  RunConfig config = SmallConfig();
  config.mix = &kYcsbInsertIntensive;
  RunResult result = RunIndexWorkload("cclbtree", config, QuietTree(), Device());
  // ~75% of ops write 16 B of user data.
  double writes = static_cast<double>(result.stats.user_bytes) / 16.0;
  EXPECT_NEAR(writes / static_cast<double>(config.ops), 0.75, 0.05);
}

// RunIndexWorkload runs on the device it is given: a cxl1024 device through
// it must give the same virtual metrics as a hand-built Runtime on that
// device plus RunWorkload, the path bench_backend_matrix takes.
TEST(Driver, RunIndexWorkloadBuildsTheGivenDevice) {
  const pmsim::DeviceConfig cxl1024{.pool_bytes = 1ULL << 30,
                                    .xpbuffer_bytes = 64 * 1024,
                                    .xpline_bytes = 1024,
                                    .backend = pmsim::MediaBackend::kCxlMem};
  RunConfig config = SmallConfig();
  RunResult driven = RunIndexWorkload("cclbtree", config, {}, cxl1024);

  kvindex::Runtime runtime({.device = cxl1024});
  auto index = MakeIndex("cclbtree", runtime, {});
  RunResult by_hand = RunWorkload(runtime, *index, config);

  ASSERT_GT(driven.stats.media_write_bytes, 0u);
  EXPECT_EQ(driven.mops, by_hand.mops);
  EXPECT_EQ(driven.xbi_amplification, by_hand.xbi_amplification);
  EXPECT_EQ(driven.cli_amplification, by_hand.cli_amplification);
  EXPECT_EQ(driven.stats.media_write_bytes, by_hand.stats.media_write_bytes);
  // The device reached the run: the same workload on ADR writes differently.
  RunResult adr = RunIndexWorkload("cclbtree", config, {}, AdrDevice());
  EXPECT_NE(adr.stats.media_write_bytes, driven.stats.media_write_bytes);
}

TEST(Driver, PresetKeysDriveWarmAndMeasure) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 1; i <= 40'000; i++) {
    keys.push_back(i * 3);
  }
  RunConfig config = SmallConfig();
  config.preset_keys = &keys;
  RunResult result = RunIndexWorkload("cclbtree", config, QuietTree(), Device());
  EXPECT_GT(result.mops, 0.0);
}

// The two headline claims of the paper as driver-level properties.
TEST(Driver, CclBeatsUnsortedLeafTreesOnXbi) {
  RunConfig config = SmallConfig();
  config.threads = 32;
  // ADR: the paper's 256 B XPLine domain.
  RunResult ccl = RunIndexWorkload("cclbtree", config, QuietTree(), AdrDevice());
  RunResult fp = RunIndexWorkload("fptree", config, {}, AdrDevice(512 << 20));
  EXPECT_LT(ccl.xbi_amplification, fp.xbi_amplification * 0.7);
}

// Fig 14's ordering: locality-aware GC costs insert throughput, naive GC's
// stop-the-world flush-back costs more, and both modes run GC rounds. ADR:
// under eADR's random cache evictions naive GC can come out ahead.
TEST(Driver, GcModesKeepFig14Order) {
  RunConfig config;
  config.threads = 48;
  config.warm_keys = 10'000;
  config.ops = 10'000;
  config.metrics = true;
  auto run = [&config](core::GcMode mode) {
    IndexConfig index_config;
    index_config.tree.gc_mode = mode;
    return RunIndexWorkload("cclbtree", config, index_config, AdrDevice());
  };
  RunResult none = run(core::GcMode::kNone);
  RunResult locality = run(core::GcMode::kLocalityAware);
  RunResult naive = run(core::GcMode::kNaive);
  EXPECT_GT(none.mops, locality.mops);
  EXPECT_GT(locality.mops, naive.mops);
  ASSERT_FALSE(locality.epochs.empty());
  ASSERT_FALSE(naive.epochs.empty());
  EXPECT_GT(locality.epochs.back().Gauge("gc_rounds"), 0u);
  EXPECT_GT(naive.epochs.back().Gauge("gc_rounds"), 0u);
}

// Locality-aware GC copies one 4 KiB span per cooperative tick, paced to end
// by the ticking worker's clock, so no upsert waits behind a whole round's
// I-log copy. Over 5 measured rounds the slowest upsert takes 106 us. A
// round run in one step at the frontier of all clocks reserved its socket's
// DIMMs for the whole copy: the workers whose writes landed behind it
// stalled, and the slowest upsert took 621 us over 4 rounds.
TEST(Driver, GcRoundsDoNotStallUpserts) {
  RunConfig config;
  config.threads = 48;
  config.warm_keys = 100'000;
  config.ops = 200'000;
  config.metrics = true;
  RunResult result = RunIndexWorkload("cclbtree", config, {}, AdrDevice());
  ASSERT_FALSE(result.epochs.empty());
  const uint64_t rounds =
      result.epochs.back().Gauge("gc_rounds") - result.epochs.front().Gauge("gc_rounds");
  EXPECT_GE(rounds, 2u);
  EXPECT_LE(result.latency.Max(), 200'000u);
}

TEST(Driver, FlatstoreScansFarSlowerThanCcl) {
  RunConfig config = SmallConfig(OpType::kScan);
  config.ops = 2'000;
  config.scan_len = 100;
  RunResult ccl = RunIndexWorkload("cclbtree", config, QuietTree(), Device());
  RunResult flat = RunIndexWorkload("flatstore", config, {}, Device());
  EXPECT_GT(ccl.mops, flat.mops * 3.0);
}

}  // namespace
}  // namespace cclbt::bench
