// pmtrace layer tests: ring-buffer wraparound semantics, the disabled-gate
// contract (zero events, zero rings), component attribution conservation
// (per-component media-write bytes sum exactly to media_write_bytes on a
// deterministic single-thread workload), scope nesting/timing, the
// Chrome-trace exporter's structural invariants, and the CCL_TRACE switch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "src/pmsim/device.h"
#include "src/pmsim/stats.h"
#include "src/trace/exporters.h"
#include "src/trace/trace.h"

namespace cclbt {
namespace {

// Restores the global trace gates around each test so test order never
// matters (the gates are process-wide).
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    trace::SetEnabled(false);
    trace::SetScopeTiming(false);
    trace::ClearRings();
  }
};

TEST_F(TraceTest, RingWraparoundKeepsNewestEvents) {
  trace::TraceRing ring(16);
  EXPECT_EQ(ring.capacity(), 16u);
  for (uint64_t i = 0; i < 100; i++) {
    trace::TraceEvent ev;
    ev.t_ns = i;
    ev.type = static_cast<uint8_t>(trace::EventType::kFlush);
    ring.Emit(ev);
  }
  EXPECT_EQ(ring.emitted(), 100u);
  std::vector<trace::TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 16u);
  // Oldest-first, and only the newest 16 survive.
  for (size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].t_ns, 84 + i);
  }
  ring.Clear();
  EXPECT_EQ(ring.emitted(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST_F(TraceTest, NonPowerOfTwoCapacityRoundsUp) {
  trace::TraceRing ring(100);
  EXPECT_EQ(ring.capacity(), 128u);
}

TEST_F(TraceTest, DisabledGateEmitsNoEventsAndAllocatesNoRings) {
  ASSERT_FALSE(trace::Enabled());
  pmsim::DeviceConfig config;
  config.pool_bytes = 16 << 20;
  config.num_sockets = 1;
  config.dimms_per_socket = 1;
  config.crash_tracking = false;
  pmsim::PmDevice device(config);
  {
    pmsim::ThreadContext ctx(device, 0, 0);
    trace::TraceScope scope(trace::Component::kWal);
    for (int i = 0; i < 1000; i++) {
      device.FlushLine(ctx, device.base() + static_cast<size_t>(i) * pmsim::kXplineBytes);
      device.Fence(ctx);
    }
    trace::Emit(trace::EventType::kWalAppend, 1);
  }
  // No ring was ever created: the disabled gate short-circuits before the
  // lazy ring factory runs.
  EXPECT_TRUE(trace::CollectRings().empty());
}

TEST_F(TraceTest, EnabledPathEmitsToLazilyCreatedRing) {
  pmsim::DeviceConfig config;
  config.pool_bytes = 16 << 20;
  config.num_sockets = 1;
  config.dimms_per_socket = 1;
  config.crash_tracking = false;
  pmsim::PmDevice device(config);
  {
    // Context created while tracing is off: its ring must still materialize
    // on the first emit after enabling (the bench driver enables tracing
    // after warm-up, under already-live contexts).
    pmsim::ThreadContext ctx(device, 0, 7);
    trace::SetEnabled(true);
    device.FlushLine(ctx, device.base());
    device.Fence(ctx);
  }
  trace::SetEnabled(false);
  std::vector<trace::NamedRing> rings = trace::CollectRings();
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0].worker_id, 7);
  ASSERT_GE(rings[0].events.size(), 2u);  // >= flush + fence
  bool saw_flush = false, saw_fence = false;
  for (const trace::TraceEvent& ev : rings[0].events) {
    saw_flush |= ev.type == static_cast<uint8_t>(trace::EventType::kFlush);
    saw_fence |= ev.type == static_cast<uint8_t>(trace::EventType::kFence);
  }
  EXPECT_TRUE(saw_flush);
  EXPECT_TRUE(saw_fence);
}

TEST_F(TraceTest, ScopeNestingRestoresComponent) {
  EXPECT_EQ(trace::CurrentComponent(), trace::Component::kOther);
  {
    trace::TraceScope outer(trace::Component::kLeaf);
    EXPECT_EQ(trace::CurrentComponent(), trace::Component::kLeaf);
    {
      trace::TraceScope inner(trace::Component::kGc);
      EXPECT_EQ(trace::CurrentComponent(), trace::Component::kGc);
    }
    EXPECT_EQ(trace::CurrentComponent(), trace::Component::kLeaf);
  }
  EXPECT_EQ(trace::CurrentComponent(), trace::Component::kOther);
}

// The acceptance-criteria invariant: on a quiesced single-thread workload,
// per-component media-write bytes sum exactly to media_write_bytes — every
// media write is attributed to exactly one component, through both the
// eviction path and the end-of-run drain.
//
// ADR: the per-component assertions need evictions at 256 B XPLines, and an
// eADR eviction is charged to whatever scope is active when it happens.
TEST_F(TraceTest, ComponentAttributionSumsToMediaWriteBytes) {
  pmsim::DeviceConfig config;
  config.backend = pmsim::MediaBackend::kAdrOptane;
  config.pool_bytes = 64 << 20;
  config.num_sockets = 1;
  config.dimms_per_socket = 2;
  config.crash_tracking = false;
  pmsim::PmDevice device(config);
  {
    pmsim::ThreadContext ctx(device, 0, 0);
    // Deterministic mix: WAL-scoped flush bursts over a wide range (forces
    // XPBuffer evictions), leaf-scoped writes over a narrow range (mostly
    // write-combined, drained at the end), and unscoped traffic.
    for (int i = 0; i < 4000; i++) {
      trace::TraceScope scope(trace::Component::kWal);
      device.FlushLine(ctx,
                       device.base() + static_cast<size_t>(i * 7 % 3000) * pmsim::kXplineBytes);
      if ((i & 3) == 3) {
        device.Fence(ctx);
      }
    }
    {
      trace::TraceScope scope(trace::Component::kWal);
      device.Fence(ctx);
    }
    for (int i = 0; i < 500; i++) {
      trace::TraceScope scope(trace::Component::kLeaf);
      device.FlushLine(ctx, device.base() + static_cast<size_t>(i % 40) * pmsim::kXplineBytes);
      device.Fence(ctx);
    }
    for (int i = 0; i < 100; i++) {
      device.FlushLine(ctx,
                       device.base() + (10'000 + static_cast<size_t>(i)) * pmsim::kXplineBytes);
      device.Fence(ctx);
    }
  }
  device.DrainBuffers();
  pmsim::StatsSnapshot s = device.stats().Snapshot();
  ASSERT_GT(s.media_write_bytes, 0u);
  uint64_t by_component = 0;
  for (uint64_t bytes : s.media_write_bytes_by_component) {
    by_component += bytes;
  }
  EXPECT_EQ(by_component, s.media_write_bytes);
  // The workload touched wal, leaf and unscoped code; each must have traffic.
  EXPECT_GT(s.media_write_bytes_for(trace::Component::kWal), 0u);
  EXPECT_GT(s.media_write_bytes_for(trace::Component::kLeaf), 0u);
  EXPECT_GT(s.media_write_bytes_for(trace::Component::kOther), 0u);
  // Same conservation for the commit-side counter: every fenced line was
  // committed on behalf of exactly one component.
  uint64_t committed = 0;
  for (uint64_t lines : s.committed_lines_by_component) {
    committed += lines;
  }
  EXPECT_GT(committed, 0u);
  EXPECT_LE(committed * pmsim::kCachelineBytes, s.xpbuffer_write_bytes);
}

// ADR: eADR flushes and fences are free, leaving no virtual time to charge.
TEST_F(TraceTest, ScopeTimingChargesExclusiveVirtualTime) {
  pmsim::DeviceConfig config;
  config.backend = pmsim::MediaBackend::kAdrOptane;
  config.pool_bytes = 16 << 20;
  config.num_sockets = 1;
  config.dimms_per_socket = 1;
  config.crash_tracking = false;
  pmsim::PmDevice device(config);
  pmsim::ThreadContext ctx(device, 0, 0);
  trace::SetScopeTiming(true);
  trace::FlushScopeTime();  // sync last_mark to this context's clock
  const uint64_t* table = trace::ThreadComponentNs();
  uint64_t wal_before = table[static_cast<int>(trace::Component::kWal)];
  uint64_t gc_before = table[static_cast<int>(trace::Component::kGc)];
  {
    trace::TraceScope wal(trace::Component::kWal);
    device.FlushLine(ctx, device.base());
    device.Fence(ctx);
    {
      trace::TraceScope gc(trace::Component::kGc);
      device.FlushLine(ctx, device.base() + pmsim::kXplineBytes);
      device.Fence(ctx);
    }
  }
  uint64_t wal_ns = table[static_cast<int>(trace::Component::kWal)] - wal_before;
  uint64_t gc_ns = table[static_cast<int>(trace::Component::kGc)] - gc_before;
  // Both scopes did one flush+fence of virtual work; exclusive accounting
  // means the inner GC time is not double-charged to WAL.
  EXPECT_GT(wal_ns, 0u);
  EXPECT_GT(gc_ns, 0u);
}

TEST_F(TraceTest, ChromeTraceJsonIsStructurallyBalanced) {
  pmsim::DeviceConfig config;
  config.pool_bytes = 16 << 20;
  config.num_sockets = 1;
  config.dimms_per_socket = 1;
  config.crash_tracking = false;
  pmsim::PmDevice device(config);
  trace::SetEnabled(true);
  {
    pmsim::ThreadContext ctx(device, 0, 0);
    for (int i = 0; i < 50; i++) {
      trace::TraceScope scope(trace::Component::kLeaf);
      device.FlushLine(ctx, device.base() + static_cast<size_t>(i) * pmsim::kXplineBytes);
      device.Fence(ctx);
    }
    // Dangling scope begin: ring retains a B whose E may be cut off — the
    // exporter must still balance the track.
    trace::TraceScope dangling(trace::Component::kGc);
    trace::Emit(trace::EventType::kGcBegin, 0);
  }
  trace::SetEnabled(false);
  std::vector<trace::NamedRing> rings = trace::CollectRings();
  ASSERT_FALSE(rings.empty());
  std::ostringstream out;
  trace::ExportChromeTraceJson(out, rings, "trace_test");
  std::string json = out.str();
  // Structural checks: balanced braces/brackets and balanced B/E rows.
  long depth = 0;
  long brackets = 0;
  for (char c : json) {
    depth += c == '{' ? 1 : (c == '}' ? -1 : 0);
    brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
    ASSERT_GE(depth, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(brackets, 0);
  auto count = [&json](const std::string& needle) {
    size_t n = 0;
    for (size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      n++;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
  EXPECT_GT(count("\"ph\":\"i\""), 0u);
}

// CCL_TRACE is a 0/1 switch on the CCL_METRICS dump. The retired prefix
// form and a switch without a dump are named once per process on stderr
// (not once per device or phase) and leave tracing off.
TEST(TracingRequested, OldSpellingIsNamedOnStderr) {
  setenv("CCL_METRICS", "/tmp/m", 1);
  setenv("CCL_TRACE", "/tmp/tr", 1);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(trace::TracingRequested());
  EXPECT_FALSE(trace::TracingRequested());
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "trace: CCL_TRACE=/tmp/tr is not 0 or 1 (the dump prefix is "
            "CCL_METRICS=<prefix>); tracing off\n");

  unsetenv("CCL_METRICS");
  setenv("CCL_TRACE", "1", 1);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(trace::TracingRequested());
  EXPECT_FALSE(trace::TracingRequested());
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "trace: CCL_TRACE=1 needs CCL_METRICS=<prefix> to name the dump; tracing off\n");

  // The switch itself resolves silently.
  setenv("CCL_METRICS", "/tmp/m", 1);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(trace::TracingRequested());
  setenv("CCL_TRACE", "0", 1);
  EXPECT_FALSE(trace::TracingRequested());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  unsetenv("CCL_TRACE");
  unsetenv("CCL_METRICS");
}

}  // namespace
}  // namespace cclbt
