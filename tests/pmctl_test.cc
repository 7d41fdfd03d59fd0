// End-to-end test of tools/pmctl over dumps written by real workloads: a
// cclbtree driver run and a 2-shard closed-loop service run, both with
// tracing, metrics, pmcheck and lockcheck on. Every pmctl verb must accept
// the dumps it reads, `pmctl check` must exit 3 / 0 / 2 on dumps with a
// seeded violation / only informational findings / no checker, a removed
// verb is a usage error, a .pmtrace line from an older writer is skipped,
// and a dump or checker section that cannot be written is named on stderr.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/bench/driver.h"
#include "src/bench/trace_dump.h"
#include "src/kvindex/runtime.h"
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

void SetDumpEnv(const std::string& trace_prefix, const std::string& metrics_prefix) {
  setenv("CCL_TRACE", trace_prefix.c_str(), 1);
  setenv("CCL_METRICS", metrics_prefix.c_str(), 1);
  setenv("CCL_PMCHECK", "1", 1);
  setenv("CCL_LOCKCHECK", "1", 1);
}

bench::RunResult RunDriver() {
  bench::RunConfig config;
  config.threads = 4;
  config.warm_keys = 10'000;
  config.ops = 10'000;
  config.op = OpType::kUpdate;
  return bench::RunIndexWorkload("cclbtree", config, {}, {.pool_bytes = 256 << 20});
}

// Writes a dump of a bare runtime on `backend` after `seed` ran on its device,
// with the section of every checker the device has. Returns the dump's path.
template <typename Seed>
std::string SeededDump(pmsim::MediaBackend backend, Seed seed) {
  kvindex::RuntimeOptions options;
  options.device.pool_bytes = 64 << 20;
  options.device.backend = backend;
  kvindex::Runtime runtime(options);
  pmsim::PmDevice& device = runtime.device();
  {
    pmsim::ThreadContext ctx(device, 0, 0);
    seed(device, ctx);
  }
  const std::string path =
      bench::WriteTraceDump(runtime, "seeded", device.stats().Snapshot(), 0);
  if (device.pmcheck() != nullptr) {
    bench::AppendCheckerSection(path, device.pmcheck()->Snapshot());
  }
  if (device.lockcheck() != nullptr) {
    bench::AppendCheckerSection(path, device.lockcheck()->Snapshot());
  }
  return path;
}

// Number of lines of the dump at `path` that start with `prefix`.
int CountLines(const std::string& path, const std::string& prefix) {
  std::ifstream in(path);
  int n = 0;
  for (std::string line; std::getline(in, line);) {
    n += line.rfind(prefix, 0) == 0 ? 1 : 0;
  }
  return n;
}

// Writes both workloads' dumps once for the whole suite.
class Pmctl : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SetDumpEnv(Scratch("t"), Scratch("m"));
    bench::RunResult run = RunDriver();
    trace_dump_ = run.trace_dump_path;
    driver_metrics_ = run.metrics_dump_path;

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
    service_metrics_ = service.Run(workload).metrics_dump_path;
  }

  static void TearDownTestSuite() {
    for (const std::string& path : {trace_dump_, driver_metrics_, service_metrics_,
                                    Scratch("chrome.json"), Scratch("legacy.pmtrace")}) {
      std::remove(path.c_str());
    }
  }

  static std::string trace_dump_;
  static std::string driver_metrics_;
  static std::string service_metrics_;
};

std::string Pmctl::trace_dump_;
std::string Pmctl::driver_metrics_;
std::string Pmctl::service_metrics_;

TEST_F(Pmctl, TraceVerbsAcceptDriverDump) {
  ASSERT_FALSE(trace_dump_.empty());
  EXPECT_EQ(RunPmctl("stats " + trace_dump_), 0);
  EXPECT_EQ(RunPmctl("heatmap " + trace_dump_), 0);
  EXPECT_EQ(RunPmctl("trace " + trace_dump_ + " -o " + Scratch("chrome.json")), 0);
  EXPECT_EQ(RunPmctl("check " + trace_dump_), 0);
  EXPECT_EQ(CountLines(trace_dump_, "checker pmcheck "), 1);
  EXPECT_EQ(CountLines(trace_dump_, "checker lockcheck "), 1);
  // Media bytes are attributed only per component (`statcomp`).
  EXPECT_EQ(CountLines(trace_dump_, "stattag "), 0);
}

// `pmctl check` gates on violations in any checker section, never on
// informational findings, and tells a run without checkers apart (exit 2).
TEST_F(Pmctl, CheckExitStatusFollowsTheSections) {
  auto useless_fence = [](pmsim::PmDevice& device, pmsim::ThreadContext& ctx) {
    device.Fence(ctx);
  };
  const std::string violation = SeededDump(pmsim::MediaBackend::kAdrOptane, useless_fence);
  EXPECT_EQ(CountLines(violation, "checkerdiag pmcheck useless_fence "), 1);
  EXPECT_EQ(RunPmctl("check " + violation), 3);

  // eADR downgrades fences (the seeded one and the pool format's) to
  // informational findings.
  const std::string info = SeededDump(pmsim::MediaBackend::kEadr, useless_fence);
  EXPECT_GE(CountLines(info, "checkerinfo pmcheck useless_fence "), 2);
  EXPECT_EQ(CountLines(info, "checkerdiag "), 0);
  EXPECT_EQ(RunPmctl("check " + info), 0);

  setenv("CCL_PMCHECK", "0", 1);
  setenv("CCL_LOCKCHECK", "0", 1);
  const std::string unchecked = SeededDump(pmsim::MediaBackend::kAdrOptane, useless_fence);
  setenv("CCL_PMCHECK", "1", 1);
  setenv("CCL_LOCKCHECK", "1", 1);
  EXPECT_EQ(CountLines(unchecked, "checker"), 0);
  EXPECT_EQ(RunPmctl("check " + unchecked), 2);

  for (const std::string& path : {violation, info, unchecked}) {
    std::remove(path.c_str());
  }
}

TEST_F(Pmctl, MetricsVerbsAcceptBothFrontEnds) {
  for (const std::string& dump : {driver_metrics_, service_metrics_}) {
    ASSERT_FALSE(dump.empty());
    EXPECT_EQ(RunPmctl("top " + dump), 0) << dump;
    EXPECT_EQ(RunPmctl("series " + dump), 0) << dump;
    EXPECT_EQ(RunPmctl("series " + dump + " --json"), 0) << dump;
  }
}

// Removed verbs are usage errors: `watch` (the run's one time series is the
// .pmmetrics epoch series) and `locks` (`check` prints every checker).
TEST_F(Pmctl, RemovedVerbsAreUsageErrors) {
  ASSERT_FALSE(trace_dump_.empty());
  EXPECT_EQ(RunPmctl("watch " + trace_dump_), 64);
  EXPECT_EQ(RunPmctl("locks " + trace_dump_), 64);
}

// Dumps from older writers still carry `sample` timeline lines and
// address-range `stattag` lines; the reader skips them like any unknown
// keyword.
TEST_F(Pmctl, LegacySampleLineStillParses) {
  ASSERT_FALSE(trace_dump_.empty());
  std::ifstream in(trace_dump_);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 2u);
  const std::string legacy = Scratch("legacy.pmtrace");
  {
    std::ofstream out(legacy);
    for (size_t i = 0; i < lines.size(); i++) {
      out << lines[i] << "\n";
      if (i == 1) {
        out << "sample 1000000 5000 4096 8192 64 32\n";
        out << "stattag leaf 4096\n";
      }
    }
  }
  EXPECT_EQ(RunPmctl("stats " + legacy), 0);
}

// A dump that cannot be written is reported, not silently skipped.
TEST(PmctlDumpWriters, UnwritablePrefixIsNamedOnStderr) {
  const std::string missing = Scratch("missing") + "/dir/";
  SetDumpEnv(missing + "t", missing + "m");
  ::testing::internal::CaptureStderr();
  bench::RunResult run = RunDriver();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(run.trace_dump_path.empty());
  EXPECT_TRUE(run.metrics_dump_path.empty());
  EXPECT_NE(err.find("cannot write " + missing + "t."), std::string::npos) << err;
  EXPECT_NE(err.find("cannot write " + missing + "m."), std::string::npos) << err;
}

TEST(PmctlDumpWriters, UnwritableCheckerSectionIsNamedOnStderr) {
  pmsim::PmCheckReport report;
  report.checker = "pmcheck";
  report.enabled = true;
  const std::string missing = Scratch("missing") + "/dir/run.pmtrace";
  ::testing::internal::CaptureStderr();
  bench::AppendCheckerSection(missing, report);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("dump: cannot write " + missing), std::string::npos) << err;
}

}  // namespace
}  // namespace cclbt
