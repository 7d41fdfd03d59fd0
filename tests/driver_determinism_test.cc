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
  config.warm_keys = 20'000;
  config.ops = 20'000;
  config.op = OpType::kInsert;
  config.seed = 1234;
  return config;
}

// Two workers per socket, so the four workers span both sockets and every
// run below makes remote accesses.
pmsim::DeviceConfig TwoSocketDevice() {
  return {.pool_bytes = 2ULL << 30, .cores_per_socket = 2};
}

// The cclbtree cases below assert media writes and GC bytes that a run this
// small only produces at ADR's 256 B XPLine (a 4 KB CXL page buffer absorbs
// it), so they pin that backend; the determinism itself holds on every one.
pmsim::DeviceConfig AdrDevice() {
  pmsim::DeviceConfig device = TwoSocketDevice();
  device.backend = pmsim::MediaBackend::kAdrOptane;
  return device;
}

void ExpectIdenticalVirtualMetrics(const RunResult& a, const RunResult& b) {
  // Bit-identical, not approximately equal: every virtual counter and every
  // derived virtual time must match exactly. The counters come from the
  // stats field list itself, so a new counter cannot be left out.
#define CCLBT_EXPECT_EQ_S(name) EXPECT_EQ(a.stats.name, b.stats.name) << #name;
#define CCLBT_EXPECT_EQ_A(name, n)                                          \
  for (int i = 0; i < (n); i++) {                                           \
    EXPECT_EQ(a.stats.name[i], b.stats.name[i]) << #name "[" << i << "]"; \
  }
  CCLBT_PMSIM_STATS_FIELDS(CCLBT_EXPECT_EQ_S, CCLBT_EXPECT_EQ_A)
#undef CCLBT_EXPECT_EQ_S
#undef CCLBT_EXPECT_EQ_A
  EXPECT_EQ(a.elapsed_virtual_ms, b.elapsed_virtual_ms);
  EXPECT_EQ(a.max_worker_vtime_ms, b.max_worker_vtime_ms);
  EXPECT_EQ(a.max_dimm_busy_ms, b.max_dimm_busy_ms);
  EXPECT_EQ(a.mops, b.mops);
}

// Same RunConfig, run twice, sequential driver: every virtual metric must be
// bit-identical. GC disabled: the no-GC baseline of the contract.
TEST(DriverDeterminismTest, RepeatedRunsAreBitIdentical) {
  IndexConfig index_config;
  index_config.tree.gc_quantum_ops = 0;
  RunConfig config = SmallConfig();
  RunResult first = RunIndexWorkload("cclbtree", config, index_config, AdrDevice());
  RunResult second = RunIndexWorkload("cclbtree", config, index_config, AdrDevice());
  ASSERT_GT(first.stats.media_write_bytes, 0u);
  ExpectIdenticalVirtualMetrics(first, second);
}

// The tentpole of DESIGN.md §10: with background GC *enabled* (the default
// deterministic scheduling), repeated runs must still be bit-identical —
// historically the one standing exception to the driver's contract, because
// GC ran on a free-running OS thread paced by wall-clock sleeps.
TEST(DriverDeterminismTest, BackgroundGcRunsAreBitIdentical) {
  IndexConfig index_config;
  // Low trigger threshold so several GC rounds fire inside this small run;
  // the assertions below prove GC actually ran.
  index_config.tree.th_log_pct = 10;
  RunConfig config = SmallConfig();
  RunResult first = RunIndexWorkload("cclbtree", config, index_config, AdrDevice());
  RunResult second = RunIndexWorkload("cclbtree", config, index_config, AdrDevice());
  ASSERT_GT(first.stats.media_write_bytes, 0u);
  ExpectIdenticalVirtualMetrics(first, second);
  // GC-attributed media bytes are present (GC ran); the comparison above
  // already pinned them bit-identical.
  EXPECT_GT(first.stats.media_write_bytes_for(trace::Component::kGc), 0u)
      << "GC never fired; the run has no GC to pin down";
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

// Determinism must hold for a baseline index too (different code path: no
// log, different flush pattern).
TEST(DriverDeterminismTest, FastFairRepeatedRunsAreBitIdentical) {
  RunConfig config = SmallConfig();
  RunResult first = RunIndexWorkload("fastfair", config, {}, TwoSocketDevice());
  RunResult second = RunIndexWorkload("fastfair", config, {}, TwoSocketDevice());
  ASSERT_GT(first.stats.media_write_bytes, 0u);
  ASSERT_GT(first.stats.remote_accesses, 0u) << "the workers never left one socket";
  ExpectIdenticalVirtualMetrics(first, second);
}

}  // namespace
}  // namespace cclbt::bench
