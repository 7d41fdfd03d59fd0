#include "src/bench/measured_phase.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/pmsim/media_model.h"
#include "src/trace/component.h"
#include "src/trace/trace.h"

namespace cclbt::bench {

namespace {

std::atomic<int> g_dump_seq{0};

// Path of the run's dump, "<CCL_METRICS>.<seq>.<label>.pmmetrics", or ""
// when CCL_METRICS is unset or empty. The process-wide sequence keeps the
// dumps of a bench binary that runs many indexes apart; the label is made
// file-name safe.
std::string DumpPath(const std::string& label) {
  const char* prefix = std::getenv("CCL_METRICS");
  if (prefix == nullptr || *prefix == '\0') {
    return std::string();
  }
  std::string name = label.empty() ? "run" : label;
  for (char& c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '-' || c == '_' || c == '.';
    if (!ok) {
      c = '-';
    }
  }
  const int seq = g_dump_seq.fetch_add(1, std::memory_order_relaxed);
  return std::string(prefix) + "." + std::to_string(seq) + "." + name + ".pmmetrics";
}

// Names a dump that could not be written in one stderr line and returns ""
// (a writer's "no dump" result).
std::string DumpWriteFailed(const std::string& path) {
  std::fprintf(stderr, "dump: cannot write %s\n", path.c_str());
  return std::string();
}

// The phase's pmsim counters: every scalar by name, straight from the field
// list, plus the per-component arrays indexed by the header's components.
std::string StatsRecord(const pmsim::StatsSnapshot& stats) {
  metrics::JsonLine line("stats");
  line.Key("counters").BeginObject();
#define CCLBT_DUMP_STAT_S(name) line.Field(#name, stats.name);
#define CCLBT_DUMP_STAT_A(name, n)
  CCLBT_PMSIM_STATS_FIELDS(CCLBT_DUMP_STAT_S, CCLBT_DUMP_STAT_A)
#undef CCLBT_DUMP_STAT_S
#undef CCLBT_DUMP_STAT_A
  return line.EndObject()
      .Array("comp_bytes", stats.media_write_bytes_by_component)
      .Array("comp_lines", stats.committed_lines_by_component)
      .Array("comp_rmw", stats.rmw_evictions_by_component)
      .Finish();
}

// The per-XPLine write counts folded into at most kMaxHeatBins bins, so the
// record stays small for multi-GB pools. Sparse: empty bins are implicit.
std::string HeatRecord(const pmsim::PmDevice& device) {
  constexpr uint64_t kMaxHeatBins = 512;
  const uint64_t units = device.num_units();
  const uint64_t per_bin = std::max<uint64_t>((units + kMaxHeatBins - 1) / kMaxHeatBins, 1);
  metrics::JsonLine line("heat");
  line.Field("units", units).Field("per_bin", per_bin).Key("bins").BeginArray();
  for (uint64_t first = 0; first < units; first += per_bin) {
    const uint64_t end = std::min(units, first + per_bin);
    uint64_t writes = 0;
    uint64_t hottest_unit = first;
    uint64_t hottest_writes = 0;
    for (uint64_t u = first; u < end; u++) {
      const uint64_t w = device.UnitWriteCount(u);
      writes += w;
      if (w > hottest_writes) {
        hottest_writes = w;
        hottest_unit = u;
      }
    }
    if (writes != 0) {
      line.BeginArray().Value(first).Value(end - first).Value(writes).Value(hottest_unit)
          .Value(hottest_writes).EndArray();
    }
  }
  return line.EndArray().Finish();
}

std::string RingRecord(const trace::NamedRing& ring) {
  metrics::JsonLine line("ring");
  line.Field("worker", ring.worker_id)
      .Field("socket", ring.socket)
      .Field("emitted", ring.emitted)
      .Key("events")
      .BeginArray();
  for (const trace::TraceEvent& ev : ring.events) {
    line.BeginArray().Value(ev.t_ns).Value(ev.type).Value(ev.comp).Value(ev.arg)
        .Value(ev.aux).Value(ev.dimm).EndArray();
  }
  return line.EndArray().Finish();
}

// A checker diagnostic's or event's own fields, as one object.
template <typename Item>
void AppendFields(metrics::JsonLine& line, const Item& item) {
  line.Key("fields").BeginObject();
  item.ForEachField([&line](const char* key, const auto& value) { line.Field(key, value); });
  line.EndObject();
}

// One checker's report (DESIGN.md §11, §16), or "" when it is disabled.
template <typename Report>
std::string CheckerRecord(const Report& report) {
  if (!report.enabled) {
    return std::string();
  }
  metrics::JsonLine line("checker");
  line.Field("checker", report.checker).Key("stats").BeginObject();
  for (const auto& [key, value] : report.stats) {
    line.Field(key, value);
  }
  line.Field("diagnostics_truncated", report.diagnostics_truncated)
      .EndObject()
      .Key("classes")
      .BeginArray();
  for (size_t c = 0; c < Report::kNumClasses; c++) {
    line.BeginObject()
        .Field("class", pmsim::CheckClassName(static_cast<typename Report::Class>(c)))
        .Field("violations", report.counts[c])
        .Field("suppressed", report.suppressed[c])
        .Field("info", report.info[c])
        .EndObject();
  }
  line.EndArray().Key("diags").BeginArray();
  for (const auto& d : report.diagnostics) {
    line.BeginObject()
        .Field("class", pmsim::CheckClassName(d.cls))
        .Key("info")
        .Bool(d.info)
        .Field("line", d.line)
        .Field("comp", trace::ComponentName(d.comp))
        .Field("worker", d.worker)
        .Field("detail", d.detail);
    AppendFields(line, d);
    line.Key("recent").BeginArray();
    for (const auto& ev : d.recent) {
      line.BeginObject()
          .Field("kind", pmsim::CheckEventName(ev.kind))
          .Field("comp", trace::ComponentName(ev.comp))
          .Field("worker", ev.worker)
          .Field("detail", ev.detail);
      AppendFields(line, ev);
      line.EndObject();
    }
    line.EndArray().EndObject();
  }
  return line.EndArray().Finish();
}

}  // namespace

bool MetricsDumpRequested() { return std::getenv("CCL_METRICS") != nullptr; }

template <typename Report>
void AppendCheckerRecord(const std::string& path, const Report& report) {
  if (!report.enabled) {
    return;
  }
  std::ofstream out(path, std::ios::app);
  out << CheckerRecord(report);
  out.flush();
  if (!out) {
    DumpWriteFailed(path);
  }
}

template void AppendCheckerRecord(const std::string&, const pmsim::PmCheckReport&);
template void AppendCheckerRecord(const std::string&, const pmsim::LockCheckReport&);

MeasuredPhase::MeasuredPhase(pmsim::PmDevice& device, bool metrics, bool epochs,
                             GaugeSampler sample_gauges)
    : device_(device),
      metrics_(metrics || MetricsDumpRequested()),
      epochs_(metrics_ && epochs),
      tracing_(trace::TracingRequested()),
      sample_gauges_(std::move(sample_gauges)),
      next_epoch_ns_(epochs_ ? kMetricsEpochNs : UINT64_MAX) {
  if (tracing_) {
    // Rings are cleared first so the dump shows this phase, not the warm-up;
    // contexts created from here on pick up rings at construction, older
    // ones on their first emit.
    trace::ClearRings();
    trace::SetEnabled(true);
  }
  before_ = device_.stats().Snapshot();
  epoch_prev_stats_ = before_;
}

// Snapshots the windowed pmsim stats and latency percentiles since the
// previous epoch end, plus the XPBuffer and pulled gauges at `t_ns`. Every
// field is virtual-time/count data, so the series is bit-identical
// run-to-run for a deterministic config.
void MeasuredPhase::CloseEpoch(uint64_t t_ns) {
  pmsim::StatsSnapshot cur = device_.stats().Snapshot();
  pmsim::StatsSnapshot win = cur.Delta(epoch_prev_stats_);
  metrics::EpochRecord e;
  e.index = series_.size();
  e.t_ns = t_ns;
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    metrics::Histogram w = op_latency_.op_virtual[k].Delta(epoch_prev_virtual_[k]);
    epoch_prev_virtual_[k] = op_latency_.op_virtual[k];
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
  sample_gauges_(&e.gauges);
  series_.push_back(std::move(e));
  epoch_prev_stats_ = cur;
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
  std::vector<trace::NamedRing> rings;
  if (tracing_) {
    rings = trace::CollectRings();
    trace::SetEnabled(false);
    trace::ClearRings();
  }
  if (pmsim::PmCheck* check = device_.pmcheck(); check != nullptr) {
    result->pmcheck = check->Snapshot();
  }
  if (pmsim::LockCheck* locks = device_.lockcheck(); locks != nullptr) {
    result->lockcheck = locks->Snapshot();
  }
  if (!metrics_) {
    return elapsed_ns;
  }
  result->metrics_snapshot = std::move(op_latency_);
  result->epochs = std::move(series_);

  const std::string path = DumpPath(label);
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
      << metrics::SerializeSummary(summary) << StatsRecord(result->stats);
  if (device_.heatmap_enabled()) {
    out << HeatRecord(device_);
  }
  for (const trace::NamedRing& ring : rings) {
    out << RingRecord(ring);
  }
  out << CheckerRecord(result->pmcheck) << CheckerRecord(result->lockcheck);
  out.flush();
  result->metrics_dump_path = out ? path : DumpWriteFailed(path);
  return elapsed_ns;
}

}  // namespace cclbt::bench
