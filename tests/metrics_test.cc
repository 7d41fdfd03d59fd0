// Tests for the metrics registry (src/metrics): the unified log-bucketed
// histogram (including the former src/common/histogram.h suite, migrated
// here when the implementations were unified), shard-merge conservation
// across real OS threads, the disabled-gate zero-registration contract, the
// deterministic .pmmetrics epoch series (bit-identical across identical
// RunConfigs, including with background GC), the per-epoch component-bytes
// sum invariant over both front ends that record epochs (the closed-loop
// driver and the sharded service), and the .pmmetrics serialize/parse round
// trip.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/bench/driver.h"
#include "src/common/rng.h"
#include "src/kvindex/runtime.h"
#include "src/metrics/histogram.h"
#include "src/metrics/metrics.h"
#include "src/metrics/pmmetrics.h"
#include "src/service/service.h"

namespace cclbt {
namespace {

using metrics::Histogram;

// --- histogram: suite migrated from tests/common_test.cc -------------------

TEST(Histogram, PercentilesOrdered) {
  Histogram hist;
  Rng rng(1);
  for (int i = 0; i < 100000; i++) {
    hist.Record(rng.NextBounded(1000000));
  }
  EXPECT_LE(hist.Percentile(50), hist.Percentile(90));
  EXPECT_LE(hist.Percentile(90), hist.Percentile(99));
  EXPECT_LE(hist.Percentile(99), hist.Percentile(99.9));
  EXPECT_LE(hist.Percentile(99.9), hist.Max());
  EXPECT_GE(hist.Percentile(0), hist.Min());
}

TEST(Histogram, ExactForSmallValues) {
  Histogram hist;
  for (uint64_t v = 0; v < 20; v++) {
    hist.Record(v);
  }
  EXPECT_EQ(hist.Min(), 0u);
  EXPECT_EQ(hist.Max(), 19u);
  EXPECT_EQ(hist.Count(), 20u);
}

TEST(Histogram, MedianApproximatelyCorrect) {
  Histogram hist;
  for (uint64_t v = 1; v <= 10000; v++) {
    hist.Record(v);
  }
  uint64_t median = hist.Percentile(50);
  EXPECT_NEAR(static_cast<double>(median), 5000.0, 5000.0 * 0.05);
}

TEST(Histogram, MergeCombinesCounts) {
  Histogram a;
  Histogram b;
  a.Record(100);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_EQ(a.Min(), 100u);
  EXPECT_EQ(a.Max(), 1000000u);
}

TEST(Histogram, EmptyReturnsZero) {
  Histogram hist;
  EXPECT_EQ(hist.Percentile(99), 0u);
  EXPECT_EQ(hist.Min(), 0u);
  EXPECT_EQ(hist.Mean(), 0.0);
}

// --- histogram: percentile oracle and boundedness --------------------------

// Percentile(p) reports the upper bound of the bucket holding the rank-p
// value, clamped into [Min, Max]. Against a sorted-vector oracle that means:
// never below the true rank value, never above that value's bucket bound.
TEST(Histogram, PercentileMatchesSortedOracle) {
  Histogram hist;
  Rng rng(7);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; i++) {
    // Mixed magnitudes: shift a full-width draw by 0..49 bits so every
    // power-of-two range (exact unit buckets through wide buckets) is hit.
    uint64_t v = rng.Next() >> rng.NextBounded(50);
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    auto rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(values.size()));
    rank = std::min(rank, static_cast<uint64_t>(values.size() - 1));
    uint64_t oracle = values[rank];
    uint64_t got = hist.Percentile(p);
    EXPECT_GE(got, oracle) << "p=" << p;
    EXPECT_LE(got, Histogram::BucketUpperBound(Histogram::BucketFor(oracle))) << "p=" << p;
  }
}

// The top bucket has a well-defined saturated bound: bucket bounds are
// non-decreasing all the way up (the previous implementation wrapped around
// uint64 and made the max bucket effectively open-ended).
TEST(Histogram, TopBucketBoundedNoOverflow) {
  uint64_t prev = 0;
  for (int i = 1; i < Histogram::kNumBuckets; i++) {
    uint64_t bound = Histogram::BucketUpperBound(i);
    EXPECT_GE(bound, prev) << "bucket " << i;
    prev = bound;
  }
  EXPECT_EQ(Histogram::MaxTrackable(), ~0ULL);

  Histogram hist;
  hist.Record(~0ULL);
  hist.Record(1);
  EXPECT_EQ(hist.Percentile(100), ~0ULL);
  EXPECT_EQ(hist.Percentile(0), 1u);
}

TEST(Histogram, DeltaIsWindowed) {
  Histogram hist;
  for (int i = 0; i < 100; i++) {
    hist.Record(500);
  }
  Histogram earlier = hist;
  for (int i = 0; i < 60; i++) {
    hist.Record(1000000);
  }
  Histogram window = hist.Delta(earlier);
  EXPECT_EQ(window.Count(), 60u);
  EXPECT_EQ(window.Sum(), 60u * 1000000u);
  // Window extremes are quantized bucket bounds around the one recorded value.
  EXPECT_GT(window.Min(), 500u);
  EXPECT_GE(window.Percentile(50), 1000000u);
  EXPECT_LE(window.Percentile(50),
            Histogram::BucketUpperBound(Histogram::BucketFor(1000000)));
}

// --- registry: gate and shard lifecycle -------------------------------------

// The disabled gate must never register a shard: one relaxed load, no TLS
// allocation, no registry mutation (the <=2% disabled-cost budget).
TEST(MetricsRegistry, DisabledGateRegistersNoShard) {
  metrics::SetEnabled(false);
  size_t before = metrics::NumShards();
  std::thread t([] {
    for (int i = 0; i < 1000; i++) {
      metrics::Add(metrics::Counter::kBufferAbsorbs);
      metrics::RecordOp(metrics::OpKind::kUpsert, 100, 100);
    }
  });
  t.join();
  EXPECT_EQ(metrics::NumShards(), before);
}

// Counts recorded by real OS threads are conserved through shard merge, even
// though the threads (and their TLS bindings) are gone by snapshot time.
TEST(MetricsRegistry, ShardMergeConservation) {
  metrics::SetEnabled(true);
  metrics::Reset();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  uint64_t expected_ops = 0;
  for (int t = 0; t < kThreads; t++) {
    uint64_t ops = 1000 + static_cast<uint64_t>(t);
    expected_ops += ops;
    threads.emplace_back([t, ops] {
      for (uint64_t i = 0; i < ops; i++) {
        metrics::Add(metrics::Counter::kBufferAbsorbs);
        metrics::Add(metrics::Counter::kWalAppendBytes, 64);
        metrics::RecordOp(metrics::OpKind::kUpsert, 100 + static_cast<uint64_t>(t), 50);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  metrics::MetricsSnapshot snap = metrics::Snapshot();
  metrics::SetEnabled(false);
  EXPECT_EQ(snap.counter(metrics::Counter::kBufferAbsorbs), expected_ops);
  EXPECT_EQ(snap.counter(metrics::Counter::kWalAppendBytes), 64 * expected_ops);
  EXPECT_EQ(snap.virt(metrics::OpKind::kUpsert).Count(), expected_ops);
  EXPECT_EQ(snap.wall(metrics::OpKind::kUpsert).Count(), expected_ops);
  EXPECT_GE(metrics::NumShards(), 1u);
}

// --- epoch series: determinism and invariants -------------------------------

bench::RunConfig MetricsConfig() {
  bench::RunConfig config;
  config.threads = 4;
  config.threads_per_socket = 2;
  config.warm_keys = 20'000;
  config.ops = 20'000;
  config.op = OpType::kInsert;
  config.seed = 1234;
  config.metrics = true;
  return config;
}

// The serialized epoch series is the deterministic payload of a .pmmetrics
// file: identical RunConfigs must produce bit-identical bytes (DESIGN.md §10
// extended to time-resolved metrics).
TEST(MetricsEpochSeries, BitIdenticalAcrossRuns) {
  bench::IndexConfig index_config;
  index_config.tree.background_gc = false;
  bench::RunConfig config = MetricsConfig();
  bench::RunResult first = bench::RunIndexWorkload("cclbtree", config, index_config);
  bench::RunResult second = bench::RunIndexWorkload("cclbtree", config, index_config);
  ASSERT_FALSE(first.epochs.empty());
  EXPECT_EQ(metrics::SerializeEpochSeries(first.epochs),
            metrics::SerializeEpochSeries(second.epochs));
}

// Same property with background GC enabled: GC rounds, WAL release bytes and
// the gc_rounds gauge land in epoch records and must stay deterministic
// under the virtual-time GC scheduling.
TEST(MetricsEpochSeries, BackgroundGcBitIdenticalAcrossRuns) {
  bench::IndexConfig index_config;
  index_config.tree.background_gc = true;
  bench::RunConfig config = MetricsConfig();
  bench::RunResult first = bench::RunIndexWorkload("cclbtree", config, index_config);
  bench::RunResult second = bench::RunIndexWorkload("cclbtree", config, index_config);
  ASSERT_FALSE(first.epochs.empty());
  EXPECT_EQ(metrics::SerializeEpochSeries(first.epochs),
            metrics::SerializeEpochSeries(second.epochs));
}

// Every epoch's per-component media bytes must sum to that epoch's windowed
// media_write_bytes, epoch windows must tile the measurement phase exactly
// (byte and op totals telescope to the run totals), and window ends must be
// strictly increasing.
void ExpectEpochsTile(const metrics::EpochSeries& epochs, uint64_t media_write_bytes,
                      uint64_t ops) {
  ASSERT_FALSE(epochs.empty());
  uint64_t media_bytes = 0;
  uint64_t epoch_ops = 0;
  uint64_t prev_t = 0;
  for (const metrics::EpochRecord& e : epochs) {
    EXPECT_EQ(e.ComponentBytesTotal(), e.media_write_bytes) << "epoch " << e.index;
    EXPECT_GT(e.t_ns, prev_t) << "epoch " << e.index;
    prev_t = e.t_ns;
    media_bytes += e.media_write_bytes;
    epoch_ops += e.TotalOps();
  }
  EXPECT_EQ(media_bytes, media_write_bytes);
  EXPECT_EQ(epoch_ops, ops);
  EXPECT_EQ(epochs.back().index, epochs.size() - 1);
}

// Both front ends record epochs through the same measured phase: the
// closed-loop driver, and a 2-shard closed-loop service run.
TEST(MetricsEpochSeries, ComponentSumsAndWindowTiling) {
  bench::IndexConfig index_config;
  index_config.tree.background_gc = true;
  bench::RunConfig config = MetricsConfig();
  bench::RunResult result = bench::RunIndexWorkload("cclbtree", config, index_config);
  {
    SCOPED_TRACE("driver");
    ExpectEpochsTile(result.epochs, result.stats.media_write_bytes, config.ops);
  }

  kvindex::RuntimeOptions options;
  options.device.pool_bytes = 256 << 20;
  kvindex::Runtime runtime(options);
  service::ServiceConfig service_config;
  service_config.shards = 2;
  service::ShardedKvService service(runtime, service_config);
  service::OpenLoopConfig workload;
  workload.ops = 20'000;
  workload.warm_keys = 10'000;
  workload.offered_mops = 0;  // closed loop
  service.Warm(workload);
  service::ServiceResult served = service.Run(workload);
  {
    SCOPED_TRACE("service");
    ExpectEpochsTile(served.epochs, served.stats.media_write_bytes, served.completed);
  }
}

// A run without the metrics flag (and no CCL_METRICS / latency collection)
// produces no epoch series and no registry activity.
TEST(MetricsEpochSeries, DisabledByDefault) {
  bench::IndexConfig index_config;
  index_config.tree.background_gc = false;
  bench::RunConfig config = MetricsConfig();
  config.metrics = false;
  bench::RunResult result = bench::RunIndexWorkload("cclbtree", config, index_config);
  EXPECT_TRUE(result.epochs.empty());
  EXPECT_EQ(result.metrics_snapshot.virt(metrics::OpKind::kUpsert).Count(), 0u);
}

// --- .pmmetrics: serialize/parse round trip ---------------------------------

TEST(PmMetricsFormat, SerializeParseRoundTrip) {
  metrics::PmMetricsFile file;
  file.header.label = "round \"trip\"";  // exercises string escaping
  file.header.epoch_ns = 1000000;
  file.header.threads = 4;
  file.header.ops = 20000;
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    file.header.op_kinds.push_back(metrics::OpKindName(static_cast<metrics::OpKind>(k)));
  }
  for (int c = 0; c < metrics::kNumCounters; c++) {
    file.header.counters.push_back(metrics::CounterName(static_cast<metrics::Counter>(c)));
  }
  file.header.components = {"other", "wal", "leaf"};

  metrics::EpochRecord e;
  e.index = 0;
  e.t_ns = 1000000;
  e.ops = {10, 2, 0, 0};
  e.p50_ns = {100, 50, 0, 0};
  e.p99_ns = {200, 60, 0, 0};
  e.p999_ns = {300, 70, 0, 0};
  e.user_bytes = 160;
  e.xpbuffer_write_bytes = 512;
  e.media_write_bytes = 384;
  e.media_read_bytes = 256;
  e.line_flushes = 8;
  e.fences = 4;
  e.comp_bytes = {0, 256, 128};
  e.xpbuf_resident = 2;
  e.xpbuf_insertions = 8;
  e.xpbuf_evictions = 6;
  e.counters.assign(static_cast<size_t>(metrics::kNumCounters), 3);
  e.gauges = {{"gc_rounds", 5}, {"leaf_bytes", 4096}};
  file.epochs.push_back(e);

  file.has_summary = true;
  file.summary.elapsed_virtual_ns = 1234567;
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    file.summary.virt.push_back({10, 100, 200, 300, 400});
    file.summary.wall.push_back({10, 90, 180, 270, 360});
  }

  std::string path = ::testing::TempDir() + "/roundtrip.pmmetrics";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << metrics::SerializeHeader(file.header) << metrics::SerializeEpochSeries(file.epochs)
        << metrics::SerializeSummary(file.summary);
  }

  metrics::PmMetricsFile parsed;
  std::string error;
  ASSERT_TRUE(metrics::ReadPmMetricsFile(path, &parsed, &error)) << error;
  EXPECT_EQ(metrics::SerializeHeader(parsed.header), metrics::SerializeHeader(file.header));
  EXPECT_EQ(metrics::SerializeEpochSeries(parsed.epochs),
            metrics::SerializeEpochSeries(file.epochs));
  ASSERT_TRUE(parsed.has_summary);
  EXPECT_EQ(metrics::SerializeSummary(parsed.summary), metrics::SerializeSummary(file.summary));

  // The component-bytes sum invariant holds for the synthetic epoch too.
  EXPECT_EQ(parsed.epochs[0].ComponentBytesTotal(), parsed.epochs[0].media_write_bytes);
}

}  // namespace
}  // namespace cclbt
