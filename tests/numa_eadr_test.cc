// Integration tests for the NUMA and eADR aspects of the simulator + tree:
// remote-access accounting, per-socket leaf/log placement, eADR persistence
// and the randomized-eviction locality penalty, multi-threaded GC.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/bench/driver.h"
#include "src/core/ccl_btree.h"
#include "tests/crash_util.h"

namespace cclbt::bench {
namespace {

TEST(Numa, RemoteAccessesAppearWhenThreadsSpanSockets) {
  // With 8 workers at threads_per_socket=4, workers 4-7 run on socket 1 but
  // FPTree allocates every leaf on socket 0 -> remote accesses accumulate.
  RunConfig config;
  config.threads = 8;
  config.threads_per_socket = 4;
  config.warm_keys = 20'000;
  config.ops = 20'000;
  RunResult result = RunIndexWorkload("fptree", config, {}, 512 << 20);
  EXPECT_GT(result.stats.remote_accesses, config.ops / 4);
}

TEST(Numa, SingleSocketRunHasNoRemoteAccesses) {
  RunConfig config;
  config.threads = 8;
  config.threads_per_socket = 48;  // everyone on socket 0
  config.warm_keys = 20'000;
  config.ops = 20'000;
  RunResult result = RunIndexWorkload("fptree", config, {}, 512 << 20);
  EXPECT_EQ(result.stats.remote_accesses, 0u);
}

TEST(Numa, CclRemoteFractionLowerThanSocketObliviousBaseline) {
  // CCL-BTree allocates leaves and logs NUMA-locally (§4.4 Opt. 1): its
  // remote-access rate across sockets must undercut FPTree's.
  RunConfig config;
  config.threads = 8;
  config.threads_per_socket = 4;
  config.warm_keys = 30'000;
  config.ops = 30'000;
  IndexConfig quiet;
  quiet.tree.background_gc = false;
  RunResult ccl = RunIndexWorkload("cclbtree", config, quiet, 512 << 20);
  RunResult fp = RunIndexWorkload("fptree", config, {}, 512 << 20);
  EXPECT_LT(ccl.stats.remote_accesses, fp.stats.remote_accesses);
}

TEST(Eadr, TreeWorksWithoutFences) {
  kvindex::RuntimeOptions runtime_options;
  runtime_options.device.pool_bytes = 256 << 20;
  runtime_options.device.eadr = true;
  kvindex::Runtime runtime(runtime_options);
  core::TreeOptions options;
  options.background_gc = false;
  core::CclBTree tree(runtime, options);
  pmsim::ThreadContext ctx(runtime.device(), 0, 0);
  for (uint64_t k = 1; k <= 20'000; k++) {
    tree.Upsert(k, k * 2);
  }
  for (uint64_t k = 1; k <= 20'000; k += 37) {
    uint64_t value = 0;
    ASSERT_TRUE(tree.Lookup(k, &value));
    EXPECT_EQ(value, k * 2);
  }
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(Eadr, EadrStoresPersistAcrossCrashWithoutFences) {
  kvindex::RuntimeOptions runtime_options;
  runtime_options.device.pool_bytes = 256 << 20;
  runtime_options.device.eadr = true;
  runtime_options.device.crash_tracking = true;
  kvindex::Runtime runtime(runtime_options);
  core::TreeOptions options;
  options.background_gc = false;
  {
    core::CclBTree tree(runtime, options);
    pmsim::ThreadContext ctx(runtime.device(), 0, 0);
    for (uint64_t k = 1; k <= 5'000; k++) {
      tree.Upsert(k, k + 9);
    }
  }
  auto tree = testutil::CrashAndRecoverTree(runtime, options);
  pmsim::ThreadContext ctx(runtime.device(), 0, 0);
  for (uint64_t k = 1; k <= 5'000; k += 13) {
    uint64_t value = 0;
    ASSERT_TRUE(tree->Lookup(k, &value)) << "key " << k;
    EXPECT_EQ(value, k + 9);
  }
}

TEST(Eadr, ExplicitFlushBeatsEadrOnXbiForCcl) {
  // The paper's §5.5 observation: removing explicit flushes (eADR) makes
  // XBI worse for a locality-aware design because implicit evictions
  // scramble the batched leaf writes.
  auto run = [](bool eadr) {
    RunConfig config;
    config.threads = 16;
    config.warm_keys = 30'000;
    config.ops = 30'000;
    kvindex::RuntimeOptions runtime_options;
    runtime_options.device.pool_bytes = 512 << 20;
    runtime_options.device.backend =
        eadr ? pmsim::MediaBackend::kEadr : pmsim::MediaBackend::kAdrOptane;
    runtime_options.device.crash_tracking = false;
    runtime_options.device.eadr_cache_lines = 4096;
    kvindex::Runtime runtime(runtime_options);
    IndexConfig quiet;
    quiet.tree.background_gc = false;
    auto index = MakeIndex("cclbtree", runtime, quiet);
    return RunWorkload(runtime, *index, config).xbi_amplification;
  };
  EXPECT_GT(run(true), run(false));
}

TEST(Gc, MultiThreadedGcRoundPreservesData) {
  kvindex::RuntimeOptions runtime_options;
  runtime_options.device.pool_bytes = 512 << 20;
  kvindex::Runtime runtime(runtime_options);
  core::TreeOptions options;
  options.background_gc = false;
  options.gc_threads = 4;
  core::CclBTree tree(runtime, options);
  pmsim::ThreadContext ctx(runtime.device(), 0, 0);
  for (uint64_t k = 1; k <= 80'000; k++) {
    tree.Upsert(Mix64(k) | 1, k);
  }
  uint64_t live_before = tree.log_live_bytes();
  tree.RunGcOnce();
  EXPECT_LT(tree.log_live_bytes(), live_before);
  for (uint64_t k = 1; k <= 80'000; k += 371) {
    uint64_t value = 0;
    ASSERT_TRUE(tree.Lookup(Mix64(k) | 1, &value));
    EXPECT_EQ(value, k);
  }
  // Crash after a parallel GC: everything must still recover.
  runtime.device().Crash();
}

TEST(Gc, MultiThreadedGcThenCrashRecovers) {
  kvindex::RuntimeOptions runtime_options;
  runtime_options.device.pool_bytes = 512 << 20;
  kvindex::Runtime runtime(runtime_options);
  core::TreeOptions options;
  options.background_gc = false;
  options.gc_threads = 3;
  {
    core::CclBTree tree(runtime, options);
    pmsim::ThreadContext ctx(runtime.device(), 0, 0);
    for (uint64_t k = 1; k <= 50'000; k++) {
      tree.Upsert(Mix64(k) | 1, k);
    }
    tree.RunGcOnce();
    for (uint64_t k = 50'001; k <= 60'000; k++) {
      tree.Upsert(Mix64(k) | 1, k);
    }
  }
  auto tree = testutil::CrashAndRecoverTree(runtime, options);
  pmsim::ThreadContext ctx(runtime.device(), 0, 0);
  for (uint64_t k = 1; k <= 60'000; k += 293) {
    uint64_t value = 0;
    ASSERT_TRUE(tree->Lookup(Mix64(k) | 1, &value)) << "key " << k;
    EXPECT_EQ(value, k);
  }
}

}  // namespace
}  // namespace cclbt::bench
