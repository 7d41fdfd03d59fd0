// Regression tests for the driver's determinism contract (see the RunConfig
// comment in src/bench/driver.h): the virtual-time metrics must be a pure
// function of the RunConfig, not of host timing. These tests pin that
// property so hot-path optimizations in pmsim (flat XPBuffer, sharded stats,
// pending-set dedup) cannot silently perturb simulated results.
#include <gtest/gtest.h>

#include <string>

#include "src/bench/driver.h"

namespace cclbt::bench {
namespace {

RunConfig SmallConfig() {
  RunConfig config;
  config.threads = 4;
  config.threads_per_socket = 2;
  config.warm_keys = 20'000;
  config.ops = 20'000;
  config.op = OpType::kInsert;
  config.seed = 1234;
  return config;
}

// The cclbtree cases below assert media writes and GC bytes that a run this
// small only produces at ADR's 256 B XPLine (a 4 KB CXL page buffer absorbs
// it), so they pin that backend; the determinism itself holds on every one.
RunConfig AdrConfig() {
  RunConfig config = SmallConfig();
  config.backend = pmsim::MediaBackend::kAdrOptane;
  return config;
}

void ExpectIdenticalVirtualMetrics(const RunResult& a, const RunResult& b) {
  // Bit-identical, not approximately equal: every virtual counter and every
  // derived virtual time must match exactly.
  EXPECT_EQ(a.stats.user_bytes, b.stats.user_bytes);
  EXPECT_EQ(a.stats.line_flushes, b.stats.line_flushes);
  EXPECT_EQ(a.stats.fences, b.stats.fences);
  EXPECT_EQ(a.stats.xpbuffer_write_bytes, b.stats.xpbuffer_write_bytes);
  EXPECT_EQ(a.stats.media_write_bytes, b.stats.media_write_bytes);
  EXPECT_EQ(a.stats.media_read_bytes, b.stats.media_read_bytes);
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(a.stats.media_writes_by_tag[i], b.stats.media_writes_by_tag[i]) << "tag " << i;
  }
  EXPECT_EQ(a.stats.remote_accesses, b.stats.remote_accesses);
  EXPECT_EQ(a.stats.pm_reads, b.stats.pm_reads);
  EXPECT_EQ(a.stats.pm_read_hits, b.stats.pm_read_hits);
  EXPECT_EQ(a.elapsed_virtual_ms, b.elapsed_virtual_ms);
  EXPECT_EQ(a.max_worker_vtime_ms, b.max_worker_vtime_ms);
  EXPECT_EQ(a.max_dimm_busy_ms, b.max_dimm_busy_ms);
  EXPECT_EQ(a.mops, b.mops);
}

// Same RunConfig, run twice, sequential driver: every virtual metric must be
// bit-identical. GC disabled: the no-GC baseline of the contract.
TEST(DriverDeterminismTest, RepeatedRunsAreBitIdentical) {
  IndexConfig index_config;
  index_config.tree.background_gc = false;
  RunConfig config = AdrConfig();
  RunResult first = RunIndexWorkload("cclbtree", config, index_config);
  RunResult second = RunIndexWorkload("cclbtree", config, index_config);
  ASSERT_GT(first.stats.media_write_bytes, 0u);
  ExpectIdenticalVirtualMetrics(first, second);
}

// A single logical worker must produce the same virtual metrics whether it
// runs inline in the driver or on a real OS thread: with one worker there is
// no interleaving, so os_parallel may not affect simulated results.
TEST(DriverDeterminismTest, SingleWorkerOsParallelMatchesSequential) {
  IndexConfig index_config;
  index_config.tree.background_gc = false;
  RunConfig config = SmallConfig();
  config.threads = 1;
  config.threads_per_socket = 1;
  config.os_parallel = false;
  RunResult sequential = RunIndexWorkload("cclbtree", config, index_config);
  config.os_parallel = true;
  RunResult parallel = RunIndexWorkload("cclbtree", config, index_config);
  ASSERT_GT(sequential.stats.media_write_bytes, 0u);
  ExpectIdenticalVirtualMetrics(sequential, parallel);
}

// The tentpole of DESIGN.md §10: with background GC *enabled* (the default
// deterministic scheduling), repeated runs must still be bit-identical —
// historically the one standing exception to the driver's contract, because
// GC ran on a free-running OS thread paced by wall-clock sleeps.
TEST(DriverDeterminismTest, BackgroundGcRunsAreBitIdentical) {
  IndexConfig index_config;
  index_config.tree.background_gc = true;
  // Low trigger threshold so several GC rounds fire inside this small run;
  // the assertions below prove GC actually ran.
  index_config.tree.th_log_pct = 10;
  RunConfig config = AdrConfig();
  RunResult first = RunIndexWorkload("cclbtree", config, index_config);
  RunResult second = RunIndexWorkload("cclbtree", config, index_config);
  ASSERT_GT(first.stats.media_write_bytes, 0u);
  ExpectIdenticalVirtualMetrics(first, second);
  // GC-attributed media bytes: present (GC ran) and bit-identical.
  uint64_t gc_bytes_first = first.stats.media_write_bytes_for(trace::Component::kGc);
  uint64_t gc_bytes_second = second.stats.media_write_bytes_for(trace::Component::kGc);
  EXPECT_GT(gc_bytes_first, 0u) << "GC never fired; the run has no GC to pin down";
  EXPECT_EQ(gc_bytes_first, gc_bytes_second);
  for (int c = 0; c < trace::kNumComponents; c++) {
    EXPECT_EQ(first.stats.media_write_bytes_by_component[c],
              second.stats.media_write_bytes_by_component[c])
        << "component " << trace::ComponentName(static_cast<trace::Component>(c));
  }
  // The `pmctl stats` conservation invariant, per run: attributed bytes sum
  // exactly to the total — GC's share is moved between runs, never lost.
  for (const RunResult* result : {&first, &second}) {
    uint64_t component_sum = 0;
    for (int c = 0; c < trace::kNumComponents; c++) {
      component_sum += result->stats.media_write_bytes_by_component[c];
    }
    EXPECT_EQ(component_sum, result->stats.media_write_bytes);
  }
}

// Driver-paced GC epochs (RunConfig::gc_epoch_ops) are part of the same
// contract: pinning rounds to driver epochs must be reproducible too.
TEST(DriverDeterminismTest, DriverGcEpochRunsAreBitIdentical) {
  IndexConfig index_config;
  index_config.tree.background_gc = false;  // GC paced by the driver instead
  index_config.tree.th_log_pct = 10;
  RunConfig config = AdrConfig();
  config.gc_epoch_ops = 512;
  RunResult first = RunIndexWorkload("cclbtree", config, index_config);
  RunResult second = RunIndexWorkload("cclbtree", config, index_config);
  ExpectIdenticalVirtualMetrics(first, second);
  uint64_t gc_bytes = first.stats.media_write_bytes_for(trace::Component::kGc);
  EXPECT_GT(gc_bytes, 0u) << "driver epochs never ticked a GC round";
  EXPECT_EQ(gc_bytes, second.stats.media_write_bytes_for(trace::Component::kGc));
}

// Determinism must hold for a baseline index too (different code path: no
// log, different flush pattern).
TEST(DriverDeterminismTest, FastFairRepeatedRunsAreBitIdentical) {
  RunConfig config = SmallConfig();
  RunResult first = RunIndexWorkload("fastfair", config);
  RunResult second = RunIndexWorkload("fastfair", config);
  ASSERT_GT(first.stats.media_write_bytes, 0u);
  ExpectIdenticalVirtualMetrics(first, second);
}

}  // namespace
}  // namespace cclbt::bench
