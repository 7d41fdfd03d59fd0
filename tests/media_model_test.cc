// Tests for the pluggable persistence-domain backends (DESIGN.md §14):
// backend resolution (explicit config > CCL_BACKEND env > ADR default, with a
// mistyped selector named on stderr), the per-backend crash-window semantics
// (eADR loses nothing acked; a volatile CXL buffer loses exactly its staged
// lines), the CXL non-volatile path's equivalence with the ADR commit loop,
// and the backend-appropriate pmcheck severities on CXL.
#include <cstdlib>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "src/kvindex/runtime.h"
#include "src/pmsim/device.h"
#include "src/pmsim/media_model.h"
#include "src/pmsim/pmcheck.h"

namespace cclbt::pmsim {
namespace {

// Resolution tests assert the no-environment defaults; the CI matrix step
// exports CCL_BACKEND for whole-suite runs, so drop it (and CCL_PMCHECK,
// which would force the checker on) for this binary.
[[maybe_unused]] const bool g_env_cleared = [] {
  unsetenv("CCL_BACKEND");
  unsetenv("CCL_CXL_PAGE");
  unsetenv("CCL_PMCHECK");
  return true;
}();

DeviceConfig SmallConfig() {
  DeviceConfig config;
  config.pool_bytes = 16 << 20;
  config.num_sockets = 1;
  config.dimms_per_socket = 1;
  return config;
}

// Writes one word into the working image (a plain PM store).
void Store(PmDevice& device, uintptr_t offset, uint64_t value) {
  std::memcpy(device.base() + offset, &value, sizeof(value));
}

uint64_t Load(PmDevice& device, uintptr_t offset) {
  uint64_t value = 0;
  std::memcpy(&value, device.base() + offset, sizeof(value));
  return value;
}

void StoreFlushFence(PmDevice& device, ThreadContext& ctx, uintptr_t offset, uint64_t value) {
  Store(device, offset, value);
  device.FlushLine(ctx, device.base() + offset);
  device.Fence(ctx);
}

TEST(ResolveBackend, DefaultIsAdrOptane) {
  DeviceConfig config = SmallConfig();
  ResolveMediaBackend(config);
  EXPECT_EQ(config.backend, MediaBackend::kAdrOptane);
  PmDevice device{SmallConfig()};
  EXPECT_EQ(device.config().backend, MediaBackend::kAdrOptane);
  EXPECT_STREQ(device.media().name(), "adr");
  EXPECT_TRUE(device.media().explicit_persist());
  EXPECT_TRUE(device.media().durable_at_commit());
}

TEST(ResolveBackend, EnvSelectorAppliesWhenAuto) {
  setenv("CCL_BACKEND", "eadr", 1);
  DeviceConfig config = SmallConfig();
  ResolveMediaBackend(config);
  EXPECT_EQ(config.backend, MediaBackend::kEadr);

  setenv("CCL_BACKEND", "cxl", 1);
  DeviceConfig cxl = SmallConfig();
  ResolveMediaBackend(cxl);
  EXPECT_EQ(cxl.backend, MediaBackend::kCxlMem);
  EXPECT_EQ(cxl.xpline_bytes, 4096u);  // CCL_CXL_PAGE default
  EXPECT_GE(cxl.xpbuffer_bytes, 64u * 4096u);

  setenv("CCL_CXL_PAGE", "1024", 1);
  DeviceConfig page = SmallConfig();
  ResolveMediaBackend(page);
  EXPECT_EQ(page.xpline_bytes, 1024u);

  // An explicit backend in the config wins over the environment.
  DeviceConfig pinned = SmallConfig();
  pinned.backend = MediaBackend::kAdrOptane;
  ResolveMediaBackend(pinned);
  EXPECT_EQ(pinned.backend, MediaBackend::kAdrOptane);

  unsetenv("CCL_CXL_PAGE");
  unsetenv("CCL_BACKEND");
}

// A mistyped selector still falls back to the default, but says so: one
// stderr line naming the variable, the value and what was used instead.
TEST(ResolveBackend, MistypedSelectorIsNamedOnStderr) {
  setenv("CCL_BACKEND", "cxI", 1);
  DeviceConfig typo = SmallConfig();
  testing::internal::CaptureStderr();
  ResolveMediaBackend(typo);
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(typo.backend, MediaBackend::kAdrOptane);
  EXPECT_EQ(err, "pmsim: unknown CCL_BACKEND=cxI (expected adr, eadr or cxl); using adr\n");

  setenv("CCL_BACKEND", "cxl", 1);
  setenv("CCL_CXL_PAGE", "3000", 1);
  DeviceConfig page = SmallConfig();
  testing::internal::CaptureStderr();
  ResolveMediaBackend(page);
  err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(page.backend, MediaBackend::kCxlMem);
  EXPECT_EQ(page.xpline_bytes, 4096u);
  EXPECT_EQ(err, "pmsim: CCL_CXL_PAGE=3000 is not a power of two in [256, 4096]; using 4096\n");

  // Valid selectors resolve silently.
  setenv("CCL_CXL_PAGE", "1024", 1);
  DeviceConfig valid = SmallConfig();
  testing::internal::CaptureStderr();
  ResolveMediaBackend(valid);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  unsetenv("CCL_CXL_PAGE");
  unsetenv("CCL_BACKEND");
}

TEST(RuntimeBackend, AccessorReportsResolvedBackend) {
  kvindex::RuntimeOptions options;
  options.device.pool_bytes = 64 << 20;
  options.device.backend = MediaBackend::kEadr;
  kvindex::Runtime runtime(options);
  EXPECT_EQ(runtime.media_backend(), MediaBackend::kEadr);
}

// --- eADR ------------------------------------------------------------------

TEST(EadrBackend, ImplicitEvictionsReachMediaWhenCacheOverflows) {
  DeviceConfig config = SmallConfig();
  config.backend = MediaBackend::kEadr;
  config.eadr_cache_lines = 8;
  PmDevice device{config};
  ThreadContext ctx(device, 0, 0);
  for (uintptr_t i = 0; i < 32; i++) {
    Store(device, i * 64, 0x100 + i);
    device.FlushLine(ctx, device.base() + i * 64);
  }
  EXPECT_LE(device.media().ResidentLines(), 8u);
  // 24 implicit evictions flushed through the XPBuffer; with 32 distinct
  // lines in a 64-entry buffer some already reached media only if evicted —
  // at minimum the XPBuffer saw them.
  EXPECT_GT(device.stats().Snapshot().xpbuffer_write_bytes, 0u);
}

TEST(EadrBackend, CrashLosesNoAckedStores) {
  DeviceConfig config = SmallConfig();
  config.backend = MediaBackend::kEadr;
  PmDevice device{config};
  ThreadContext ctx(device, 0, 0);
  for (uintptr_t i = 0; i < 16; i++) {
    Store(device, i * 64, 0xAA00 + i);
    device.FlushLine(ctx, device.base() + i * 64);  // durable right here
  }
  device.Crash();
  // No pending window in a flush-free domain: nothing dropped, every
  // flushed store survives the power failure.
  EXPECT_EQ(device.stats().Snapshot().crash_lines_dropped, 0u);
  for (uintptr_t i = 0; i < 16; i++) {
    EXPECT_EQ(Load(device, i * 64), 0xAA00 + i) << "line " << i;
  }
  // The modeled CPU cache restarts cold.
  EXPECT_EQ(device.media().ResidentLines(), 0u);
}

// --- CXL-mem ---------------------------------------------------------------

// With a power-protected buffer (the default) the CXL backend is the ADR
// commit path at page geometry: identical virtual metrics for an identical
// op sequence at equal geometry.
TEST(CxlBackend, NonVolatileMatchesAdrAccounting) {
  auto run = [](MediaBackend backend) {
    DeviceConfig config = SmallConfig();
    config.backend = backend;
    PmDevice device{config};
    ThreadContext ctx(device, 0, 0);
    for (uintptr_t i = 0; i < 200; i++) {
      StoreFlushFence(device, ctx, (i % 64) * 4096 + (i % 4) * 64, i + 1);
    }
    device.DrainBuffers();
    return device.stats().Snapshot();
  };
  StatsSnapshot adr = run(MediaBackend::kAdrOptane);
  StatsSnapshot cxl = run(MediaBackend::kCxlMem);
  EXPECT_EQ(adr.media_write_bytes, cxl.media_write_bytes);
  EXPECT_EQ(adr.xpbuffer_write_bytes, cxl.xpbuffer_write_bytes);
  EXPECT_EQ(adr.line_flushes, cxl.line_flushes);
  EXPECT_EQ(adr.fences, cxl.fences);
}

// The volatile-buffer variant: fence commit stages, unit eviction persists,
// clean shutdown persists everything.
TEST(CxlBackend, VolatileBufferPersistsOnCleanShutdown) {
  DeviceConfig config = SmallConfig();
  config.backend = MediaBackend::kCxlMem;
  config.xpline_bytes = 1024;
  config.xpbuffer_bytes = 4 * 1024;  // 4 media units
  config.cxl_volatile_buffer = true;
  PmDevice device{config};
  ThreadContext ctx(device, 0, 0);
  for (uintptr_t unit = 0; unit < 3; unit++) {
    StoreFlushFence(device, ctx, unit * 1024, 0xCC00 + unit);
  }
  EXPECT_EQ(device.media().ResidentLines(), 3u);
  device.DrainBuffers();  // clean power-down reaches the persistence boundary
  EXPECT_EQ(device.media().ResidentLines(), 0u);
  device.Crash();
  for (uintptr_t unit = 0; unit < 3; unit++) {
    EXPECT_EQ(Load(device, unit * 1024), 0xCC00 + unit) << "unit " << unit;
  }
}

TEST(CxlBackend, VolatileBufferCrashWindowIsExactlyTheStagedLines) {
  DeviceConfig config = SmallConfig();
  config.backend = MediaBackend::kCxlMem;
  config.xpline_bytes = 1024;
  config.xpbuffer_bytes = 4 * 1024;  // 4 media units
  config.cxl_volatile_buffer = true;
  PmDevice device{config};
  ThreadContext ctx(device, 0, 0);
  // 5 distinct units into a 4-unit buffer: exactly one eviction, so exactly
  // one line is durable and 4 stay staged in the volatile buffer.
  for (uintptr_t unit = 0; unit < 5; unit++) {
    StoreFlushFence(device, ctx, unit * 1024, 0xDD00 + unit);
  }
  uint64_t staged = device.media().ResidentLines();
  EXPECT_EQ(staged, 4u);
  device.Crash();
  EXPECT_EQ(device.stats().Snapshot().crash_lines_dropped, staged);
  int survivors = 0;
  for (uintptr_t unit = 0; unit < 5; unit++) {
    if (Load(device, unit * 1024) == 0xDD00 + unit) {
      survivors++;
    }
  }
  EXPECT_EQ(survivors, 1) << "only the evicted unit's line was on media";
}

// CXL keeps the full ADR rule table: a redundant flush is a real violation
// on an explicit-persist backend regardless of unit geometry.
TEST(CxlBackend, PmCheckKeepsReportSeverity) {
  DeviceConfig config = SmallConfig();
  config.backend = MediaBackend::kCxlMem;
  config.pmcheck = true;
  PmDevice device{config};
  ASSERT_NE(device.pmcheck(), nullptr);
  ThreadContext ctx(device, 0, 0);
  StoreFlushFence(device, ctx, 64, 0xC1);
  device.FlushLine(ctx, device.base() + 64);  // flush of a clean line
  device.Fence(ctx);
  PmCheckReport report = device.pmcheck()->Snapshot();
  EXPECT_EQ(report.counts[static_cast<size_t>(PmCheckClass::kRedundantFlush)], 1u);
  EXPECT_EQ(report.total_info(), 0u);
}

// pmcheck under a volatile CXL buffer: an unscheduled crash skips the
// class-4 scan — committed-but-staged lines differ from the shadow by
// design, not because the program missed a flush.
TEST(CxlBackend, VolatileBufferCrashSkipsClass4Scan) {
  DeviceConfig config = SmallConfig();
  config.backend = MediaBackend::kCxlMem;
  config.xpline_bytes = 1024;
  config.xpbuffer_bytes = 4 * 1024;
  config.cxl_volatile_buffer = true;
  config.pmcheck = true;
  PmDevice device{config};
  ASSERT_NE(device.pmcheck(), nullptr);
  ThreadContext ctx(device, 0, 0);
  StoreFlushFence(device, ctx, 0, 0xC2);  // acked, staged, not yet on media
  device.Crash();
  PmCheckReport report = device.pmcheck()->Snapshot();
  EXPECT_EQ(report.counts[static_cast<size_t>(PmCheckClass::kUnflushedAtClose)], 0u);
}

}  // namespace
}  // namespace cclbt::pmsim
