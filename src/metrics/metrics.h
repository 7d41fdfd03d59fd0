// Per-op-kind latency histograms of one measured phase, in both clocks.
// The phase that records them owns them (src/bench/measured_phase.h): the
// driver and the service hand each op's virtual and wall latency to
// MeasuredPhase::RecordOp, and the epoch series windows the virtual ones.
// Counts (GC rounds, buffer flushes, sheds, ...) are not kept here: each
// epoch pulls them from their owners as gauges.
//
// Wall time enters only through the sanctioned shim (src/metrics/clock.h,
// lint R6) and lands only in the .pmmetrics summary record.
#ifndef SRC_METRICS_METRICS_H_
#define SRC_METRICS_METRICS_H_

#include <cstddef>
#include <cstdint>

#include "src/metrics/histogram.h"

namespace cclbt::metrics {

// Operation kinds for latency histograms. bench::ExecuteOp maps OpType onto
// these: insert/update/delete are all upsert-class writes (the paper
// implements all three as upsert, §4.2).
enum class OpKind : uint8_t { kUpsert = 0, kLookup = 1, kScan = 2, kCount = 3 };
inline constexpr int kNumOpKinds = static_cast<int>(OpKind::kCount);

inline const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kUpsert:
      return "upsert";
    case OpKind::kLookup:
      return "lookup";
    case OpKind::kScan:
      return "scan";
    case OpKind::kCount:
      break;
  }
  return "?";
}

// One phase's latencies per op kind.
struct MetricsSnapshot {
  Histogram op_virtual[kNumOpKinds];  // virtual-time latency (ns)
  Histogram op_wall[kNumOpKinds];     // host wall latency (ns)

  const Histogram& virt(OpKind k) const { return op_virtual[static_cast<size_t>(k)]; }
  const Histogram& wall(OpKind k) const { return op_wall[static_cast<size_t>(k)]; }
};

}  // namespace cclbt::metrics

#endif  // SRC_METRICS_METRICS_H_
