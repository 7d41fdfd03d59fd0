// End-to-end test of tools/pmctl over dumps written by real workloads: a
// cclbtree driver run and a 2-shard closed-loop service run, both with
// tracing, metrics, pmcheck and lockcheck on. Every pmctl verb must accept
// both dumps, `pmctl check` must exit 3 / 0 / 2 on dumps with a seeded
// violation / only informational findings / no checker, a bench that calls
// RunWorkload on its own runtime dumps its checker records too, a removed
// verb is a usage error, a record type or field the reader does not know is
// skipped, and a dump or checker record that cannot be written is named on
// stderr.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/bench/driver.h"
#include "src/bench/measured_phase.h"
#include "src/kvindex/runtime.h"
#include "src/metrics/pmmetrics.h"
#include "src/pmsim/device.h"
#include "src/service/service.h"

namespace cclbt {
namespace {

// Runs `pmctl <args>` with its output discarded; returns the exit status.
int RunPmctl(const std::string& args) {
  const std::string cmd = std::string(PMCTL_PATH) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// Per-process path prefix under the test temp dir, so concurrent suites
// never share dump files.
std::string Scratch(const std::string& name) {
  return ::testing::TempDir() + "pmctl_test." + std::to_string(getpid()) + "." + name;
}

void SetDumpEnv(const std::string& prefix) {
  setenv("CCL_METRICS", prefix.c_str(), 1);
  setenv("CCL_TRACE", "1", 1);
  setenv("CCL_PMCHECK", "1", 1);
  setenv("CCL_LOCKCHECK", "1", 1);
}

bench::RunConfig DriverConfig() {
  bench::RunConfig config;
  config.threads = 4;
  config.warm_keys = 10'000;
  config.ops = 10'000;
  config.op = OpType::kUpdate;
  return config;
}

bench::RunResult RunDriver() {
  return bench::RunIndexWorkload("cclbtree", DriverConfig(), {}, {.pool_bytes = 256 << 20});
}

// The records of the dump at `path`, or none when it does not parse.
std::vector<metrics::JsonValue> Records(const std::string& path) {
  metrics::PmMetricsFile f;
  std::string error;
  EXPECT_TRUE(metrics::ReadPmMetricsFile(path, &f, &error)) << error;
  return f.records;
}

// Number of records of `type` in the dump at `path`; for `checker` records,
// only those of the checker named `checker`.
int CountRecords(const std::string& path, const std::string& type,
                 const std::string& checker = "") {
  int n = 0;
  for (const metrics::JsonValue& r : Records(path)) {
    n += r.Str("type") == type && (checker.empty() || r.Str("checker") == checker) ? 1 : 0;
  }
  return n;
}

// Number of pmcheck diagnostics of class `cls` in the dump's last pmcheck
// record, counting violations or informational findings.
int CountPmCheckDiags(const std::string& path, const std::string& cls, bool info) {
  int n = 0;
  for (const metrics::JsonValue& r : Records(path)) {
    if (r.Str("type") != "checker" || r.Str("checker") != "pmcheck") {
      continue;
    }
    n = 0;
    for (const metrics::JsonValue& d : r.Array("diags")) {
      n += d.Str("class") == cls && d.At("info").boolean == info ? 1 : 0;
    }
  }
  return n;
}

// Dumps a measured phase of a bare runtime on `backend` during which `seed`
// ran on its device; the phase writes the record of every checker the device
// has. Returns the dump's path.
template <typename Seed>
std::string SeededDump(pmsim::MediaBackend backend, Seed seed) {
  kvindex::RuntimeOptions options;
  options.device.pool_bytes = 64 << 20;
  options.device.backend = backend;
  kvindex::Runtime runtime(options);
  pmsim::PmDevice& device = runtime.device();
  bench::MeasuredPhase phase(device, /*metrics=*/true, /*epochs=*/false,
                             [](bench::MeasuredPhase::Gauges*) {});
  {
    pmsim::ThreadContext ctx(device, 0, 0);
    seed(device, ctx);
  }
  bench::PhaseResult result;
  phase.Finish(0, "seeded", 1, 0, &result);
  return result.metrics_dump_path;
}

// Writes both workloads' dumps once for the whole suite.
class Pmctl : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SetDumpEnv(Scratch("m"));
    driver_dump_ = RunDriver().metrics_dump_path;

    kvindex::RuntimeOptions options;
    options.device.pool_bytes = 256 << 20;
    kvindex::Runtime runtime(options);
    service::ServiceConfig config;
    config.shards = 2;
    service::ShardedKvService service(runtime, config);
    service::OpenLoopConfig workload;
    workload.ops = 6'000;
    workload.warm_keys = 3'000;
    workload.offered_mops = 0;  // closed loop
    service.Warm(workload);
    service_dump_ = service.Run(workload).metrics_dump_path;
  }

  static void TearDownTestSuite() {
    for (const std::string& path : {driver_dump_, service_dump_, Scratch("chrome.json"),
                                    Scratch("legacy.pmmetrics"), Scratch("tokenized")}) {
      std::remove(path.c_str());
    }
  }

  static std::string driver_dump_;
  static std::string service_dump_;
};

std::string Pmctl::driver_dump_;
std::string Pmctl::service_dump_;

// Both front ends write the same records, and every verb reads them.
TEST_F(Pmctl, EveryVerbAcceptsBothFrontEnds) {
  for (const std::string& dump : {driver_dump_, service_dump_}) {
    ASSERT_FALSE(dump.empty());
    EXPECT_EQ(RunPmctl("stats " + dump), 0) << dump;
    EXPECT_EQ(RunPmctl("heatmap " + dump), 0) << dump;
    EXPECT_EQ(RunPmctl("trace " + dump + " -o " + Scratch("chrome.json")), 0) << dump;
    EXPECT_EQ(RunPmctl("check " + dump), 0) << dump;
    EXPECT_EQ(RunPmctl("top " + dump), 0) << dump;
    EXPECT_EQ(RunPmctl("series " + dump), 0) << dump;
    EXPECT_EQ(RunPmctl("series " + dump + " --json"), 0) << dump;
    EXPECT_EQ(CountRecords(dump, "stats"), 1) << dump;
    EXPECT_EQ(CountRecords(dump, "heat"), 1) << dump;
    EXPECT_GE(CountRecords(dump, "ring"), 1) << dump;
    EXPECT_GE(CountRecords(dump, "checker", "pmcheck"), 1) << dump;
    EXPECT_GE(CountRecords(dump, "checker", "lockcheck"), 1) << dump;
  }
}

// A bench that calls RunWorkload on a runtime it built itself (tab1,
// backend_matrix, fig16, fig17, ...) dumps its checker records too.
TEST_F(Pmctl, RunWorkloadDumpCarriesCheckerRecords) {
  kvindex::RuntimeOptions options;
  options.device.pool_bytes = 256 << 20;
  kvindex::Runtime runtime(options);
  auto index = bench::MakeIndex("cclbtree", runtime, {});
  bench::RunConfig config = DriverConfig();
  config.label = "runworkload";
  const std::string dump = bench::RunWorkload(runtime, *index, config).metrics_dump_path;
  ASSERT_FALSE(dump.empty());
  EXPECT_EQ(CountRecords(dump, "checker", "pmcheck"), 1);
  EXPECT_EQ(RunPmctl("check " + dump), 0);
  std::remove(dump.c_str());
}

// `pmctl check` gates on violations in any checker record, never on
// informational findings, and tells a run without checkers apart (exit 2).
TEST_F(Pmctl, CheckExitStatusFollowsTheSections) {
  auto useless_fence = [](pmsim::PmDevice& device, pmsim::ThreadContext& ctx) {
    device.Fence(ctx);
  };
  const std::string violation = SeededDump(pmsim::MediaBackend::kAdrOptane, useless_fence);
  EXPECT_EQ(CountPmCheckDiags(violation, "useless_fence", /*info=*/false), 1);
  EXPECT_EQ(RunPmctl("check " + violation), 3);

  // eADR downgrades fences (the seeded one and the pool format's) to
  // informational findings.
  const std::string info = SeededDump(pmsim::MediaBackend::kEadr, useless_fence);
  EXPECT_GE(CountPmCheckDiags(info, "useless_fence", /*info=*/true), 2);
  EXPECT_EQ(CountPmCheckDiags(info, "useless_fence", /*info=*/false), 0);
  EXPECT_EQ(RunPmctl("check " + info), 0);

  setenv("CCL_PMCHECK", "0", 1);
  setenv("CCL_LOCKCHECK", "0", 1);
  const std::string unchecked = SeededDump(pmsim::MediaBackend::kAdrOptane, useless_fence);
  setenv("CCL_PMCHECK", "1", 1);
  setenv("CCL_LOCKCHECK", "1", 1);
  EXPECT_EQ(CountRecords(unchecked, "checker"), 0);
  EXPECT_EQ(RunPmctl("check " + unchecked), 2);

  for (const std::string& path : {violation, info, unchecked}) {
    std::remove(path.c_str());
  }
}

// Removed verbs are usage errors: `watch` (the run's one time series is the
// epoch series) and `locks` (`check` prints every checker).
TEST_F(Pmctl, RemovedVerbsAreUsageErrors) {
  ASSERT_FALSE(driver_dump_.empty());
  EXPECT_EQ(RunPmctl("watch " + driver_dump_), 64);
  EXPECT_EQ(RunPmctl("locks " + driver_dump_), 64);
}

// Readers skip record types and fields they do not know, such as the
// `sample` timeline of older writers and the `counters` table and arrays of
// older headers and epochs (whose op kinds end in `recover`). A line that is
// not JSON, such as the first line of the retired tokenized dump, is an
// error.
TEST_F(Pmctl, UnknownRecordTypeIsSkipped) {
  ASSERT_FALSE(driver_dump_.empty());
  const std::string legacy = Scratch("legacy.pmmetrics");
  {
    std::ofstream out(legacy);
    out << "{\"type\":\"sample\",\"t_ns\":1000000,\"ops\":5000,\"media_write_bytes\":4096}\n";
    std::ifstream in(driver_dump_);
    out << in.rdbuf();
    out << "{\"type\":\"header\",\"pmmetrics\":1,\"label\":\"legacy\",\"backend\":\"adr\","
           "\"epoch_ns\":1000000,\"threads\":4,\"ops\":5000,"
           "\"op_kinds\":[\"upsert\",\"lookup\",\"scan\",\"recover\"],"
           "\"counters\":[\"buffer_absorbs\",\"buffer_flushes\",\"buffer_flush_entries\","
           "\"wal_append_bytes\",\"wal_release_bytes\",\"gc_rounds\",\"service_admits\","
           "\"service_sheds\",\"service_batches\"],"
           "\"components\":[\"other\",\"wal\",\"leaf\"]}\n"
           "{\"type\":\"epoch\",\"i\":0,\"t_ns\":1000000,\"ops\":[5000,0,0,0],"
           "\"p50_ns\":[900,0,0,0],\"p99_ns\":[2000,0,0,0],\"p999_ns\":[4000,0,0,0],"
           "\"user_bytes\":80000,\"xpbuffer_write_bytes\":320000,\"media_write_bytes\":4096,"
           "\"media_read_bytes\":0,\"line_flushes\":5000,\"fences\":2500,"
           "\"comp_bytes\":[0,1024,3072],"
           "\"xpbuf\":{\"resident\":64,\"insertions\":100,\"evictions\":36},"
           "\"counters\":[3000,1000,2000,80000,0,0,0,0,0],\"gauges\":{\"gc_rounds\":0}}\n";
  }
  EXPECT_EQ(RunPmctl("stats " + legacy), 0);
  EXPECT_EQ(RunPmctl("series " + legacy), 0);
  EXPECT_EQ(RunPmctl("top " + legacy), 0);

  const std::string tokenized = Scratch("tokenized");
  std::ofstream(tokenized) << "pmtrace 1\nlabel cclbtree\n";
  EXPECT_EQ(RunPmctl("stats " + tokenized), 1);
}

// A dump that cannot be written is reported, not silently skipped.
TEST(PmctlDumpWriters, UnwritablePrefixIsNamedOnStderr) {
  const std::string missing = Scratch("missing") + "/dir/";
  SetDumpEnv(missing + "m");
  ::testing::internal::CaptureStderr();
  bench::RunResult run = RunDriver();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(run.metrics_dump_path.empty());
  EXPECT_NE(err.find("cannot write " + missing + "m."), std::string::npos) << err;
}

TEST(PmctlDumpWriters, UnwritableCheckerSectionIsNamedOnStderr) {
  pmsim::PmCheckReport report;
  report.checker = "pmcheck";
  report.enabled = true;
  const std::string missing = Scratch("missing") + "/dir/run.pmmetrics";
  ::testing::internal::CaptureStderr();
  bench::AppendCheckerRecord(missing, report);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("dump: cannot write " + missing), std::string::npos) << err;
}

}  // namespace
}  // namespace cclbt
