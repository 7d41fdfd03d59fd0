#include "src/bench/measured_phase.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>

#include "src/bench/trace_dump.h"
#include "src/pmsim/media_model.h"
#include "src/trace/component.h"

namespace cclbt::bench {

namespace {

std::atomic<int> g_metrics_dump_seq{0};

}  // namespace

bool MetricsDumpRequested() { return std::getenv("CCL_METRICS") != nullptr; }

MeasuredPhase::MeasuredPhase(pmsim::PmDevice& device, bool metrics, bool epochs,
                             GaugeSampler sample_gauges)
    : device_(device),
      metrics_(metrics || MetricsDumpRequested()),
      epochs_(metrics_ && epochs),
      sample_gauges_(std::move(sample_gauges)),
      next_epoch_ns_(epochs_ ? kMetricsEpochNs : UINT64_MAX) {
  if (metrics_) {
    metrics::Reset();
    metrics::SetEnabled(true);
  }
  before_ = device_.stats().Snapshot();
  epoch_prev_stats_ = before_;
}

// Snapshots the windowed pmsim stats, registry counters and latency
// percentiles since the previous epoch end, plus the XPBuffer and index
// gauges at `t_ns`. Every field is virtual-time/count data, so the series is
// bit-identical run-to-run for a deterministic config.
void MeasuredPhase::CloseEpoch(uint64_t t_ns) {
  pmsim::StatsSnapshot cur = device_.stats().Snapshot();
  pmsim::StatsSnapshot win = cur.Delta(epoch_prev_stats_);
  metrics::MetricsSnapshot mcur = metrics::Snapshot();
  metrics::EpochRecord e;
  e.index = series_.size();
  e.t_ns = t_ns;
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    metrics::Histogram w = mcur.op_virtual[k].Delta(epoch_prev_metrics_.op_virtual[k]);
    e.ops.push_back(w.Count());
    e.p50_ns.push_back(w.Count() == 0 ? 0 : w.Percentile(50));
    e.p99_ns.push_back(w.Count() == 0 ? 0 : w.Percentile(99));
    e.p999_ns.push_back(w.Count() == 0 ? 0 : w.Percentile(99.9));
  }
  e.user_bytes = win.user_bytes;
  e.xpbuffer_write_bytes = win.xpbuffer_write_bytes;
  e.media_write_bytes = win.media_write_bytes;
  e.media_read_bytes = win.media_read_bytes;
  e.line_flushes = win.line_flushes;
  e.fences = win.fences;
  for (int c = 0; c < trace::kNumComponents; c++) {
    e.comp_bytes.push_back(win.media_write_bytes_by_component[c]);
  }
  pmsim::PmDevice::XpBufferTotals xb = device_.SampleXpBuffers();
  e.xpbuf_resident = xb.resident;
  e.xpbuf_insertions = xb.insertions;
  e.xpbuf_evictions = xb.evictions;
  for (int c = 0; c < metrics::kNumCounters; c++) {
    e.counters.push_back(mcur.counters[c] - epoch_prev_metrics_.counters[c]);
  }
  sample_gauges_(&e.gauges);
  series_.push_back(std::move(e));
  epoch_prev_stats_ = cur;
  epoch_prev_metrics_ = std::move(mcur);
}

uint64_t MeasuredPhase::Finish(uint64_t frontier_ns, const std::string& label, uint64_t threads,
                               uint64_t ops, PhaseResult* result) {
  if (epochs_) {
    // Close the final (partial) window so the series tiles the whole phase:
    // summed windowed bytes == the phase's stats delta.
    CloseEpoch(frontier_ns);
  }
  const uint64_t elapsed_ns = std::max(frontier_ns, device_.MaxDimmBusyNs());
  result->elapsed_virtual_ms = static_cast<double>(elapsed_ns) / 1e6;
  result->stats = device_.stats().Snapshot().Delta(before_);
  result->cli_amplification = result->stats.CliAmplification();
  result->xbi_amplification = result->stats.XbiAmplification();
  if (!metrics_) {
    return elapsed_ns;
  }
  result->metrics_snapshot = metrics::Snapshot();
  metrics::SetEnabled(false);
  result->epochs = std::move(series_);

  const std::string path = DumpPath("CCL_METRICS", g_metrics_dump_seq, label, ".pmmetrics");
  if (path.empty()) {
    return elapsed_ns;
  }
  metrics::PmMetricsHeader header;
  header.label = label;
  header.backend = pmsim::MediaBackendName(device_.config().backend);
  header.epoch_ns = kMetricsEpochNs;
  header.threads = threads;
  header.ops = ops;
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    header.op_kinds.emplace_back(metrics::OpKindName(static_cast<metrics::OpKind>(k)));
  }
  for (int c = 0; c < metrics::kNumCounters; c++) {
    header.counters.emplace_back(metrics::CounterName(static_cast<metrics::Counter>(c)));
  }
  for (int c = 0; c < trace::kNumComponents; c++) {
    header.components.emplace_back(trace::ComponentName(static_cast<trace::Component>(c)));
  }
  metrics::PmMetricsSummary summary;
  summary.elapsed_virtual_ns = elapsed_ns;
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    summary.virt.push_back(metrics::SummarizeHistogram(result->metrics_snapshot.op_virtual[k]));
    summary.wall.push_back(metrics::SummarizeHistogram(result->metrics_snapshot.op_wall[k]));
  }
  std::ofstream out(path);
  out << metrics::SerializeHeader(header) << metrics::SerializeEpochSeries(result->epochs)
      << metrics::SerializeSummary(summary);
  out.flush();
  result->metrics_dump_path = out ? path : DumpWriteFailed(path);
  return elapsed_ns;
}

}  // namespace cclbt::bench
