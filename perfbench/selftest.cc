// Self-tests of the benchmark's own measurement code, run by `perfbench
// selftest` (perfbench/run.py runs them before every benchmark run):
//   1. a run through the ProbeIndex, untraced and traced, matches a direct
//      bench::RunWorkload on the bare index bit for bit on virtual metrics;
//   2. the probe's warm/measured boundary falls after exactly warm_keys calls;
//   3. per-component media write bytes sum to media_write_bytes;
//   4. two seeds give two different runs.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "probe_index.h"
#include "selftest.h"
#include "src/bench/driver.h"
#include "src/core/ccl_btree.h"
#include "workloads.h"

namespace perfbench {

namespace {

using cclbt::bench::RunConfig;
using cclbt::bench::RunResult;

struct Checker {
  int failures = 0;
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAIL: %s\n", what.c_str());
      failures++;
    }
  }
};

bool SameVirtualMetrics(const RunResult& a, const RunResult& b) {
  // StatsSnapshot is all uint64_t counters, so bytewise equality is exact.
  return a.mops == b.mops && a.elapsed_virtual_ms == b.elapsed_virtual_ms &&
         a.max_worker_vtime_ms == b.max_worker_vtime_ms &&
         a.max_dimm_busy_ms == b.max_dimm_busy_ms &&
         std::memcmp(&a.stats, &b.stats, sizeof(a.stats)) == 0 &&
         a.footprint.pm_bytes == b.footprint.pm_bytes &&
         a.footprint.dram_bytes == b.footprint.dram_bytes;
}

// Runs `config` on a fresh runtime and tree; through a ProbeIndex unless
// `probe_mode` is "direct".
RunResult RunSmall(RunConfig config, const std::string& probe_mode, Checker& check) {
  cclbt::kvindex::Runtime runtime(cclbt::kvindex::RuntimeOptions{});
  cclbt::core::CclBTree tree(runtime, cclbt::core::TreeOptions{});
  if (probe_mode == "direct") {
    return cclbt::bench::RunWorkload(runtime, tree, config);
  }
  const bool traced = probe_mode == "traced";
  config.collect_component_latency = traced;
  ProbeIndex::Options options;
  options.warm_calls = config.warm_keys;
  options.wall_per_call = traced;
  uint64_t calls_at_start = 0;
  int starts = 0;
  ProbeIndex* probe_ptr = nullptr;
  options.on_measure_start = [&] {
    calls_at_start = probe_ptr->calls();
    starts++;
  };
  ProbeIndex probe(tree, options);
  probe_ptr = &probe;
  RunResult result = cclbt::bench::RunWorkload(runtime, probe, config);
  // calls() counts the call being started, so the first measured call sees
  // warm_keys + 1.
  check.Expect(starts == 1 && calls_at_start == config.warm_keys + 1,
               probe_mode + ": measure start after exactly warm_keys calls");
  check.Expect(probe.last_warm_vclock_ns() > 0 && probe.first_measured_vclock_ns() == 0,
               probe_mode + ": warm clocks advanced, measured clocks start at zero");
  check.Expect(probe.measured_calls() == config.ops, probe_mode + ": measured calls == ops");
  return result;
}

}  // namespace

int RunSelfTest() {
  Checker check;
  for (std::string workload : {"ingest_uniform", "read_zipf"}) {
    RunConfig config = DriverConfig(workload, /*seed=*/7);
    config.threads = 8;
    config.warm_keys = 20'000;
    config.ops = 20'000;
    std::vector<uint64_t> keys;
    if (config.dist == cclbt::KeyDistribution::kUniform) {
      keys = SeededKeys(config.warm_keys + config.ops, 7);
      config.preset_keys = &keys;
    }
    RunResult direct = RunSmall(config, "direct", check);
    for (std::string mode : {"untraced", "traced"}) {
      RunResult probed = RunSmall(config, mode, check);
      check.Expect(SameVirtualMetrics(direct, probed),
                   workload + ": " + mode + " probe run matches the direct run");
    }
    // The seed must reach the inputs: another seed gives another run.
    RunConfig reseeded = DriverConfig(workload, /*seed=*/99);
    reseeded.threads = config.threads;
    reseeded.warm_keys = config.warm_keys;
    reseeded.ops = config.ops;
    std::vector<uint64_t> reseeded_keys;
    if (!keys.empty()) {
      reseeded_keys = SeededKeys(config.warm_keys + config.ops, 99);
      reseeded.preset_keys = &reseeded_keys;
    }
    check.Expect(!SameVirtualMetrics(direct, RunSmall(reseeded, "direct", check)),
                 workload + ": seeds 7 and 99 give different runs");
    uint64_t by_component = 0;
    for (uint64_t bytes : direct.stats.media_write_bytes_by_component) {
      by_component += bytes;
    }
    check.Expect(direct.stats.media_write_bytes > 0 &&
                     by_component == direct.stats.media_write_bytes,
                 workload + ": per-component media bytes sum to media_write_bytes");
  }
  std::fprintf(stderr, "selftest %s\n", check.failures == 0 ? "ok" : "FAILED");
  return check.failures == 0 ? 0 : 1;
}

}  // namespace perfbench
