// One measured phase, shared by the closed-loop driver (src/bench/driver.cc)
// and the sharded service (src/service/service.cc). Each front end keeps its
// own scheduler and key generation; the phase owns what both measure the
// same way:
//
//  * the bracket: stats snapshot at the start, elapsed = max(front-end
//    frontier, busiest DIMM) and the stats delta at the end;
//  * the run's per-op-kind latency histograms (RecordOp);
//  * the virtual-time epoch series (DESIGN.md §13), closed on a fixed
//    kMetricsEpochNs grid and tiling the phase exactly, with every count
//    pulled from its owner as a gauge;
//  * event tracing under CCL_TRACE=1 (src/trace/trace.h);
//  * the checker reports at the end of the phase;
//  * the run's one dump, "<CCL_METRICS>.<seq>.<label>.pmmetrics": header,
//    epochs, summary, stats, and the heat, ring and checker records
//    (src/metrics/pmmetrics.h);
//  * ExecuteOp, the one op switch with its user-byte accounting and
//    OpType -> OpKind mapping.
#ifndef SRC_BENCH_MEASURED_PHASE_H_
#define SRC_BENCH_MEASURED_PHASE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/ycsb.h"
#include "src/kvindex/kv_index.h"
#include "src/metrics/metrics.h"
#include "src/metrics/pmmetrics.h"
#include "src/pmsim/device.h"
#include "src/pmsim/lockcheck.h"
#include "src/pmsim/pmcheck.h"
#include "src/pmsim/stats.h"
#include "src/pmsim/thread_context.h"

namespace cclbt::bench {

// Virtual-time width of one metrics epoch.
inline constexpr uint64_t kMetricsEpochNs = 1'000'000;

// True when CCL_METRICS is set: every measured phase records its metrics
// and writes "<prefix>.<seq>.<label>.pmmetrics".
bool MetricsDumpRequested();

// Appends one checker record to the dump at `path`; a disabled report
// appends nothing. RunIndexWorkload appends the report it takes after the
// unflushed-at-close scan, which supersedes the phase's own record. A record
// that cannot be written is named on stderr.
template <typename Report>
void AppendCheckerRecord(const std::string& path, const Report& report);

// What every front end reports about its measured phase.
struct PhaseResult {
  double elapsed_virtual_ms = 0;  // max(frontier, busiest DIMM)
  pmsim::StatsSnapshot stats;     // measured-phase device delta
  double cli_amplification = 0;
  double xbi_amplification = 0;
  // The phase's per-op-kind virtual/wall histograms (empty unless metrics
  // were on).
  metrics::MetricsSnapshot metrics_snapshot;
  // Virtual-time-epoch series (empty unless epochs were collected).
  // Deterministic: bit-identical run-to-run per DESIGN.md §10.
  metrics::EpochSeries epochs;
  // Checker reports at the end of the phase (enabled == false unless
  // DeviceConfig::pmcheck / ::lockcheck or CCL_PMCHECK=1 / CCL_LOCKCHECK=1
  // turned the checker on). Counts only grow, so a clean report of a
  // finished run stays clean.
  pmsim::PmCheckReport pmcheck;
  pmsim::LockCheckReport lockcheck;
  // Path of the .pmmetrics dump ("" when CCL_METRICS is unset or the dump
  // could not be written).
  std::string metrics_dump_path;
};

class MeasuredPhase {
 public:
  using Gauges = std::vector<std::pair<std::string, uint64_t>>;
  using GaugeSampler = std::function<void(Gauges*)>;

  // Starts the phase on `device`, whose costs the caller has already reset.
  // `metrics` (or CCL_METRICS) turns on RecordOp; `epochs` additionally
  // records the epoch series, pulling gauges through `sample_gauges` at each
  // epoch end. CCL_TRACE=1 clears the trace rings and enables tracing until
  // Finish.
  MeasuredPhase(pmsim::PmDevice& device, bool metrics, bool epochs,
                GaugeSampler sample_gauges);

  MeasuredPhase(const MeasuredPhase&) = delete;
  MeasuredPhase& operator=(const MeasuredPhase&) = delete;

  bool metrics() const { return metrics_; }

  // Records one op's latency in both clocks when metrics() is on. Callers
  // derive wall_ns from metrics::WallNowNs() (the sanctioned shim) only.
  void RecordOp(metrics::OpKind kind, uint64_t virtual_ns, uint64_t wall_ns) {
    if (metrics_) {
      op_latency_.op_virtual[static_cast<size_t>(kind)].Record(virtual_ns);
      op_latency_.op_wall[static_cast<size_t>(kind)].Record(wall_ns);
    }
  }

  // Called after each op (or batch) with the virtual clock that just
  // advanced: closes an epoch once `now_ns` crosses the grid, then snaps the
  // next boundary to the grid. One compare when epochs are off.
  void Tick(uint64_t now_ns) {
    if (now_ns >= next_epoch_ns_) {
      CloseEpoch(now_ns);
      next_epoch_ns_ = (now_ns / kMetricsEpochNs + 1) * kMetricsEpochNs;
    }
  }

  // Ends the phase at the front end's `frontier_ns`: closes the final
  // (partial) epoch there, fills `result`, disables tracing, and writes the
  // .pmmetrics dump under `label`. Returns the elapsed virtual ns.
  uint64_t Finish(uint64_t frontier_ns, const std::string& label, uint64_t threads, uint64_t ops,
                  PhaseResult* result);

 private:
  void CloseEpoch(uint64_t t_ns);

  pmsim::PmDevice& device_;
  const bool metrics_;
  const bool epochs_;
  const bool tracing_;
  GaugeSampler sample_gauges_;
  uint64_t next_epoch_ns_;
  pmsim::StatsSnapshot before_;
  pmsim::StatsSnapshot epoch_prev_stats_;
  metrics::MetricsSnapshot op_latency_;
  metrics::Histogram epoch_prev_virtual_[metrics::kNumOpKinds];
  metrics::EpochSeries series_;
};

// Runs one operation on `index` under the current thread context and
// returns its latency kind. Writes charge `write_bytes` of user data;
// insert/update/delete are all upsert-class writes (the paper implements all
// three as upsert, §4.2). Inline: it sits on every measured op.
inline metrics::OpKind ExecuteOp(kvindex::KvIndex& index, OpType op, uint64_t key,
                                 uint64_t value, uint64_t write_bytes, size_t scan_len,
                                 kvindex::KeyValue* scan_out) {
  switch (op) {
    case OpType::kInsert:
    case OpType::kUpdate:
      pmsim::ThreadContext::Current()->stats_shard().AddUserBytes(write_bytes);
      index.Upsert(key, value);
      return metrics::OpKind::kUpsert;
    case OpType::kDelete:
      pmsim::ThreadContext::Current()->stats_shard().AddUserBytes(write_bytes);
      index.Remove(key);
      return metrics::OpKind::kUpsert;
    case OpType::kRead: {
      uint64_t found = 0;
      index.Lookup(key, &found);
      return metrics::OpKind::kLookup;
    }
    case OpType::kScan:
      index.Scan(key, scan_len, scan_out);
      return metrics::OpKind::kScan;
  }
  return metrics::OpKind::kUpsert;
}

}  // namespace cclbt::bench

#endif  // SRC_BENCH_MEASURED_PHASE_H_
