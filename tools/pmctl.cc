// pmctl: inspector for the .pmmetrics dump a bench run writes (set
// CCL_METRICS=<prefix> and run any bench; one dump per measured run, and
// CCL_TRACE=1 adds the heatmap and trace rings). Modeled on ipmctl's
// show/performance verbs, but reading the simulator's richer attribution
// data instead of DIMM SMART counters. Every verb reads the same file:
//
//   pmctl stats   <dump>            amplification + per-component table
//   pmctl heatmap <dump> [--cols N] ASCII XPLine write-count heatmap
//   pmctl trace   <dump> [-o f]     Chrome trace-event JSON (Perfetto-loadable)
//   pmctl check   <dump>            every checker record (pmcheck, lockcheck);
//                                   exit 3 on violations, 2 if no checker ran
//   pmctl top     <dump>            one-shot terminal dashboard (no polling
//                                   by design — wrap with `watch -n1` for a
//                                   live view)
//   pmctl series  <dump> [--json]   per-epoch time series as CSV (default)
//                                   or raw JSON lines; exits 3 if any
//                                   epoch's per-component bytes fail to sum
//                                   to that epoch's media_write_bytes
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/metrics/pmmetrics.h"
#include "src/trace/event.h"
#include "src/trace/exporters.h"
#include "src/trace/trace.h"

namespace cclbt::pmctl {
namespace {

using metrics::JsonValue;
using metrics::PmMetricsFile;

// The last record of `type` in the dump, or nullptr.
const JsonValue* FindRecord(const PmMetricsFile& f, const char* type) {
  const JsonValue* found = nullptr;
  for (const JsonValue& r : f.records) {
    if (r.Str("type") == type) {
      found = &r;
    }
  }
  return found;
}

std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= 1ULL << 30) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", static_cast<double>(bytes) / (1ULL << 30));
  } else if (bytes >= 1ULL << 20) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", static_cast<double>(bytes) / (1ULL << 20));
  } else if (bytes >= 1ULL << 10) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB", static_cast<double>(bytes) / (1ULL << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

int CmdStats(const PmMetricsFile& f) {
  const JsonValue* stats = FindRecord(f, "stats");
  if (stats == nullptr) {
    std::cerr << "pmctl: no stats record in dump\n";
    return 1;
  }
  const JsonValue& counters = stats->At("counters");
  const uint64_t user = counters.U64("user_bytes");
  const uint64_t xpb = counters.U64("xpbuffer_write_bytes");
  const uint64_t media = counters.U64("media_write_bytes");
  char elapsed[32] = "?";
  if (f.has_summary) {
    std::snprintf(elapsed, sizeof(elapsed), "%g",
                  static_cast<double>(f.summary.elapsed_virtual_ns) / 1e6);
  }
  std::printf("run %s (elapsed %s virtual ms)\n", f.header.label.c_str(), elapsed);
  std::printf("\n-- counters --\n");
  for (const auto& [name, value] : counters.object) {
    std::printf("  %-28s %20llu\n", name.c_str(), static_cast<unsigned long long>(value.number));
  }
  std::printf("\n-- amplification --\n");
  if (user != 0) {
    std::printf("  CLI (xpbuffer/user)  %8.3f\n",
                static_cast<double>(xpb) / static_cast<double>(user));
    std::printf("  XBI (media/user)     %8.3f\n",
                static_cast<double>(media) / static_cast<double>(user));
  } else {
    std::printf("  (no user bytes recorded; read-only run?)\n");
  }
  const std::vector<JsonValue>& comp_bytes = stats->Array("comp_bytes");
  const std::vector<JsonValue>& comp_lines = stats->Array("comp_lines");
  const std::vector<JsonValue>& comp_rmw = stats->Array("comp_rmw");
  if (!comp_bytes.empty()) {
    std::printf("\n-- media write bytes by component (code scope) --\n");
    uint64_t comp_total = 0;
    for (const JsonValue& bytes : comp_bytes) {
      comp_total += bytes.number;
    }
    for (size_t c = 0; c < comp_bytes.size(); c++) {
      const uint64_t bytes = comp_bytes[c].number;
      const uint64_t lines = c < comp_lines.size() ? comp_lines[c].number : 0;
      const uint64_t rmw = c < comp_rmw.size() ? comp_rmw[c].number : 0;
      if (bytes == 0 && lines == 0) {
        continue;
      }
      double pct = media == 0 ? 0.0
                              : 100.0 * static_cast<double>(bytes) / static_cast<double>(media);
      std::printf("  %-12s %14llu  %6.2f%%   (%s, %llu committed lines, %llu rmw evictions)\n",
                  c < f.header.components.size() ? f.header.components[c].c_str() : "?",
                  static_cast<unsigned long long>(bytes), pct, HumanBytes(bytes).c_str(),
                  static_cast<unsigned long long>(lines), static_cast<unsigned long long>(rmw));
    }
    std::printf("  %-12s %14llu  %s\n", "total", static_cast<unsigned long long>(comp_total),
                comp_total == media ? "(= media_write_bytes)" : "(!= media_write_bytes)");
    if (comp_total != media) {
      std::fprintf(stderr,
                   "pmctl: WARNING: component attribution (%llu) does not sum to "
                   "media_write_bytes (%llu)\n",
                   static_cast<unsigned long long>(comp_total),
                   static_cast<unsigned long long>(media));
      return 2;
    }
  }
  return 0;
}

int CmdHeatmap(const PmMetricsFile& f, int columns) {
  const JsonValue* heat = FindRecord(f, "heat");
  const uint64_t units = heat != nullptr ? heat->U64("units") : 0;
  const uint64_t per_bin = heat != nullptr ? heat->U64("per_bin") : 0;
  if (units == 0 || per_bin == 0) {
    std::printf("(no heatmap in dump; rerun with CCL_TRACE=1 and CCL_METRICS=<prefix>)\n");
    return 0;
  }
  // Reconstitute the dense bin vector (the dump omits empty bins).
  size_t num_bins = static_cast<size_t>((units + per_bin - 1) / per_bin);
  std::vector<trace::HeatBin> bins(num_bins);
  for (size_t i = 0; i < num_bins; i++) {
    bins[i].first_unit = static_cast<uint64_t>(i) * per_bin;
    bins[i].units = std::min<uint64_t>(per_bin, units - bins[i].first_unit);
  }
  uint64_t total_writes = 0;
  trace::HeatBin hottest;
  for (const JsonValue& row : heat->Array("bins")) {
    if (row.array.size() != 5) {
      continue;
    }
    trace::HeatBin bin{row.array[0].number, row.array[1].number, row.array[2].number,
                       row.array[3].number, row.array[4].number};
    size_t idx = static_cast<size_t>(bin.first_unit / per_bin);
    if (idx >= num_bins) {
      continue;
    }
    bins[idx].writes = bin.writes;
    bins[idx].hottest_unit = bin.hottest_unit;
    bins[idx].hottest_writes = bin.hottest_writes;
    total_writes += bin.writes;
    if (bin.hottest_writes > hottest.hottest_writes) {
      hottest = bin;
    }
  }
  std::printf("run %s: %llu media writes over %llu XPLines (%llu XPLines/bin)\n",
              f.header.label.c_str(), static_cast<unsigned long long>(total_writes),
              static_cast<unsigned long long>(units), static_cast<unsigned long long>(per_bin));
  trace::RenderHeatmap(std::cout, bins, columns);
  if (hottest.hottest_writes > 0) {
    std::printf("hottest XPLine: unit %llu with %llu writes\n",
                static_cast<unsigned long long>(hottest.hottest_unit),
                static_cast<unsigned long long>(hottest.hottest_writes));
  }
  return 0;
}

int CmdTrace(const PmMetricsFile& f, const std::string& out_path) {
  std::vector<trace::NamedRing> rings;
  for (const JsonValue& r : f.records) {
    if (r.Str("type") != "ring") {
      continue;
    }
    trace::NamedRing& ring = rings.emplace_back();
    ring.worker_id = static_cast<int>(r.U64("worker"));
    ring.socket = static_cast<int>(r.U64("socket"));
    ring.emitted = r.U64("emitted");
    for (const JsonValue& e : r.Array("events")) {
      if (e.array.size() != 6) {
        continue;
      }
      trace::TraceEvent& ev = ring.events.emplace_back();
      ev.t_ns = e.array[0].number;
      ev.type = static_cast<uint8_t>(e.array[1].number);
      ev.comp = static_cast<uint8_t>(e.array[2].number);
      ev.arg = e.array[3].number;
      ev.aux = static_cast<uint32_t>(e.array[4].number);
      ev.dimm = static_cast<uint16_t>(e.array[5].number);
    }
  }
  if (rings.empty()) {
    std::cerr << "pmctl: no trace rings in dump\n";
    return 1;
  }
  uint64_t total = 0, retained = 0;
  for (const trace::NamedRing& ring : rings) {
    total += ring.emitted;
    retained += ring.events.size();
  }
  std::cerr << "pmctl: " << rings.size() << " worker rings, " << retained << "/" << total
            << " events retained\n";
  const std::string& label = f.header.label;
  if (out_path.empty() || out_path == "-") {
    trace::ExportChromeTraceJson(std::cout, rings, label);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "pmctl: cannot write " << out_path << "\n";
    return 1;
  }
  trace::ExportChromeTraceJson(out, rings, label);
  out.flush();
  if (!out) {
    std::cerr << "pmctl: write to " << out_path << " failed\n";
    return 1;
  }
  std::cerr << "pmctl: wrote " << out_path << " (load in Perfetto / chrome://tracing)\n";
  return 0;
}

// A checker diagnostic's or event's own fields as " key=value" text.
std::string FieldsText(const JsonValue& item) {
  std::string out;
  for (const auto& [key, value] : item.At("fields").object) {
    out += " " + key + "=" +
           (value.kind == JsonValue::Kind::kNumber ? std::to_string(value.number) : value.str);
  }
  return out;
}

// Every checker record of the dump: pmcheck (DESIGN.md §11) and lockcheck
// (§16), in order of first appearance; a later record of a checker
// supersedes its earlier one. Exit status: 0 clean, 2 no checker was
// enabled for the run, 3 violations in any record. Informational findings
// never gate it.
int CmdCheck(const PmMetricsFile& f) {
  std::vector<const JsonValue*> checkers;
  for (const JsonValue& r : f.records) {
    if (r.Str("type") != "checker") {
      continue;
    }
    auto same = std::find_if(checkers.begin(), checkers.end(), [&r](const JsonValue* c) {
      return c->Str("checker") == r.Str("checker");
    });
    if (same != checkers.end()) {
      *same = &r;
    } else {
      checkers.push_back(&r);
    }
  }
  const char* label = f.header.label.c_str();
  if (checkers.empty()) {
    std::printf("run %s: no checker was enabled for this run\n", label);
    std::printf("(rerun with CCL_PMCHECK=1 and/or CCL_LOCKCHECK=1 and CCL_METRICS=<prefix> to "
                "produce a checked dump)\n");
    return 2;
  }
  bool violations = false;
  for (const JsonValue* s : checkers) {
    uint64_t total = 0;
    uint64_t suppressed = 0;
    uint64_t info = 0;
    for (const JsonValue& row : s->Array("classes")) {
      total += row.U64("violations");
      suppressed += row.U64("suppressed");
      info += row.U64("info");
    }
    violations = violations || total != 0;
    std::printf("run %s: %s %s — %llu violation(s), %llu informational, %llu suppressed\n",
                label, s->Str("checker").c_str(), total == 0 ? "CLEAN" : "VIOLATIONS",
                static_cast<unsigned long long>(total), static_cast<unsigned long long>(info),
                static_cast<unsigned long long>(suppressed));
    if (!f.header.backend.empty()) {
      std::printf("  %-22s %14s\n", "backend", f.header.backend.c_str());
    }
    for (const auto& [name, value] : s->At("stats").object) {
      std::printf("  %-22s %14llu\n", name.c_str(),
                  static_cast<unsigned long long>(value.number));
      if (name == "diagnostics_truncated" && value.number != 0) {
        std::printf("  WARNING: %llu diagnostic(s) beyond the retention cap were counted "
                    "but not materialized — the list below is incomplete\n",
                    static_cast<unsigned long long>(value.number));
      }
    }
    std::printf("\n-- violations by class --\n");
    for (const JsonValue& row : s->Array("classes")) {
      std::printf("  %-22s %14llu   (%llu info, %llu suppressed)\n", row.Str("class").c_str(),
                  static_cast<unsigned long long>(row.U64("violations")),
                  static_cast<unsigned long long>(row.U64("info")),
                  static_cast<unsigned long long>(row.U64("suppressed")));
    }
    const std::vector<JsonValue>& diags = s->Array("diags");
    if (!diags.empty()) {
      std::printf("\n-- diagnostics --\n");
      size_t i = 0;
      for (const JsonValue& diag : diags) {
        std::printf("[%zu] %s%s: %s\n", i++, diag.Str("class").c_str(),
                    diag.At("info").boolean ? " (info)" : "", diag.Str("detail").c_str());
        std::printf("    line 0x%llx, component %s, worker %llu,%s\n",
                    static_cast<unsigned long long>(diag.U64("line")), diag.Str("comp").c_str(),
                    static_cast<unsigned long long>(diag.U64("worker")),
                    FieldsText(diag).c_str());
        for (const JsonValue& ev : diag.Array("recent")) {
          std::printf("      ... %-9s comp=%-10s worker=%-5llu detail=0x%llx%s\n",
                      ev.Str("kind").c_str(), ev.Str("comp").c_str(),
                      static_cast<unsigned long long>(ev.U64("worker")),
                      static_cast<unsigned long long>(ev.U64("detail")), FieldsText(ev).c_str());
        }
      }
    }
    std::printf("\n");
  }
  return violations ? 3 : 0;
}

// --- epoch-series commands --------------------------------------------------

// Verifies the per-epoch extension of the PR 2 sum-to-total invariant: in
// every epoch, the windowed per-component media bytes must sum exactly to
// the windowed media_write_bytes. Returns the number of violating epochs
// (reported to stderr).
size_t CheckEpochComponentSums(const PmMetricsFile& f) {
  size_t bad = 0;
  for (const metrics::EpochRecord& e : f.epochs) {
    uint64_t sum = e.ComponentBytesTotal();
    if (sum != e.media_write_bytes) {
      std::fprintf(stderr,
                   "pmctl: epoch %llu: component bytes (%llu) != windowed "
                   "media_write_bytes (%llu)\n",
                   static_cast<unsigned long long>(e.index),
                   static_cast<unsigned long long>(sum),
                   static_cast<unsigned long long>(e.media_write_bytes));
      bad++;
    }
  }
  return bad;
}

std::string Spark(const std::vector<double>& values) {
  static const char kRamp[] = " .:-=+*#%@";
  double max_v = 0;
  for (double v : values) {
    max_v = std::max(max_v, v);
  }
  std::string out;
  for (double v : values) {
    int level = max_v == 0 ? 0 : static_cast<int>(v / max_v * 9.0);
    out += kRamp[std::min(9, std::max(0, level))];
  }
  return out;
}

int CmdTop(const PmMetricsFile& f) {
  std::printf("run %-20s  threads %llu  ops %llu  epoch %.3f virtual ms\n",
              f.header.label.c_str(), static_cast<unsigned long long>(f.header.threads),
              static_cast<unsigned long long>(f.header.ops),
              static_cast<double>(f.header.epoch_ns) / 1e6);
  if (f.has_summary) {
    std::printf("elapsed %.3f virtual ms\n",
                static_cast<double>(f.summary.elapsed_virtual_ns) / 1e6);
  }

  if (!f.epochs.empty()) {
    // Run-wide windowed aggregates + the most recent epoch's instantaneous view.
    std::vector<double> xbi_series;
    std::vector<double> mops_series;
    uint64_t prev_t = 0;
    for (const metrics::EpochRecord& e : f.epochs) {
      xbi_series.push_back(e.WindowXbi());
      uint64_t dt = e.t_ns - prev_t;
      mops_series.push_back(dt == 0 ? 0.0
                                    : static_cast<double>(e.TotalOps()) * 1e3 /
                                          static_cast<double>(dt));
      prev_t = e.t_ns;
    }
    const metrics::EpochRecord& last = f.epochs.back();
    std::printf("\n-- windowed series (%zu epochs) --\n", f.epochs.size());
    std::printf("  Mops |%s|\n", Spark(mops_series).c_str());
    std::printf("  XBI  |%s|\n", Spark(xbi_series).c_str());
    std::printf("\n-- last epoch (t=%.3f virtual ms) --\n",
                static_cast<double>(last.t_ns) / 1e6);
    std::printf("  Mops %8.3f   CLI %7.3f   XBI %7.3f   flush/op %6.2f   fence/op %6.2f\n",
                mops_series.back(), last.WindowCli(), last.WindowXbi(),
                last.TotalOps() == 0 ? 0.0
                                     : static_cast<double>(last.line_flushes) /
                                           static_cast<double>(last.TotalOps()),
                last.TotalOps() == 0 ? 0.0
                                     : static_cast<double>(last.fences) /
                                           static_cast<double>(last.TotalOps()));
    std::printf("  xpbuffer: resident %llu lines, insertions %llu, evictions %llu\n",
                static_cast<unsigned long long>(last.xpbuf_resident),
                static_cast<unsigned long long>(last.xpbuf_insertions),
                static_cast<unsigned long long>(last.xpbuf_evictions));
    if (!last.comp_bytes.empty()) {
      std::printf("  media bytes by component:");
      for (size_t c = 0; c < last.comp_bytes.size(); c++) {
        if (last.comp_bytes[c] == 0) {
          continue;
        }
        std::printf(" %s=%llu",
                    c < f.header.components.size() ? f.header.components[c].c_str() : "?",
                    static_cast<unsigned long long>(last.comp_bytes[c]));
      }
      std::printf("\n");
    }
    if (!last.gauges.empty()) {
      std::printf("  index gauges:");
      for (const auto& [name, value] : last.gauges) {
        std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(value));
      }
      std::printf("\n");
    }
  } else {
    std::printf("\n(no epoch records)\n");
  }

  if (f.has_summary) {
    std::printf("\n-- per-op latency (virtual ns | wall ns) --\n");
    std::printf("  %-8s %12s %10s %10s %10s | %10s %10s %10s\n", "op", "count", "p50", "p99",
                "p999", "p50", "p99", "p999");
    for (size_t k = 0; k < f.summary.virt.size(); k++) {
      const metrics::OpLatencySummary& v = f.summary.virt[k];
      if (v.count == 0) {
        continue;
      }
      const metrics::OpLatencySummary w =
          k < f.summary.wall.size() ? f.summary.wall[k] : metrics::OpLatencySummary{};
      std::printf("  %-8s %12llu %10llu %10llu %10llu | %10llu %10llu %10llu\n",
                  k < f.header.op_kinds.size() ? f.header.op_kinds[k].c_str() : "?",
                  static_cast<unsigned long long>(v.count),
                  static_cast<unsigned long long>(v.p50_ns),
                  static_cast<unsigned long long>(v.p99_ns),
                  static_cast<unsigned long long>(v.p999_ns),
                  static_cast<unsigned long long>(w.p50_ns),
                  static_cast<unsigned long long>(w.p99_ns),
                  static_cast<unsigned long long>(w.p999_ns));
    }
  }

  size_t bad = CheckEpochComponentSums(f);
  if (bad != 0) {
    std::printf("\nWARNING: %zu epoch(s) violate the component-sum invariant\n", bad);
    return 3;
  }
  return 0;
}

int CmdSeries(const PmMetricsFile& f, bool json) {
  if (json) {
    // Raw record lines (the deterministic payload), re-serialized.
    std::fputs(metrics::SerializeHeader(f.header).c_str(), stdout);
    std::fputs(metrics::SerializeEpochSeries(f.epochs).c_str(), stdout);
  } else {
    // CSV: one row per epoch, stable column order derived from the header
    // name tables (gauge columns from the first epoch's gauge list).
    std::string head = "epoch,t_ns";
    for (const std::string& k : f.header.op_kinds) {
      head += ",ops_" + k + ",p50_ns_" + k + ",p99_ns_" + k + ",p999_ns_" + k;
    }
    head +=
        ",user_bytes,xpbuffer_write_bytes,media_write_bytes,media_read_bytes,"
        "line_flushes,fences,window_cli,window_xbi";
    for (const std::string& c : f.header.components) {
      head += ",mwB_" + c;
    }
    head += ",xpbuf_resident,xpbuf_insertions,xpbuf_evictions";
    if (!f.epochs.empty()) {
      for (const auto& [name, value] : f.epochs.front().gauges) {
        (void)value;
        head += ",gauge_" + name;
      }
    }
    std::printf("%s\n", head.c_str());
    auto cell = [](uint64_t v) { return std::to_string(v); };
    for (const metrics::EpochRecord& e : f.epochs) {
      std::string row = cell(e.index) + "," + cell(e.t_ns);
      for (size_t k = 0; k < f.header.op_kinds.size(); k++) {
        row += "," + cell(k < e.ops.size() ? e.ops[k] : 0);
        row += "," + cell(k < e.p50_ns.size() ? e.p50_ns[k] : 0);
        row += "," + cell(k < e.p99_ns.size() ? e.p99_ns[k] : 0);
        row += "," + cell(k < e.p999_ns.size() ? e.p999_ns[k] : 0);
      }
      row += "," + cell(e.user_bytes) + "," + cell(e.xpbuffer_write_bytes) + "," +
             cell(e.media_write_bytes) + "," + cell(e.media_read_bytes) + "," +
             cell(e.line_flushes) + "," + cell(e.fences);
      char amp[64];
      std::snprintf(amp, sizeof(amp), ",%.6f,%.6f", e.WindowCli(), e.WindowXbi());
      row += amp;
      for (size_t c = 0; c < f.header.components.size(); c++) {
        row += "," + cell(c < e.comp_bytes.size() ? e.comp_bytes[c] : 0);
      }
      row += "," + cell(e.xpbuf_resident) + "," + cell(e.xpbuf_insertions) + "," +
             cell(e.xpbuf_evictions);
      for (const auto& [name, value] : e.gauges) {
        (void)name;
        row += "," + cell(value);
      }
      std::printf("%s\n", row.c_str());
    }
  }
  // The CI contract: a series export fails loudly when any epoch's
  // per-component bytes do not sum to the windowed media-write delta.
  return CheckEpochComponentSums(f) == 0 ? 0 : 3;
}

int Usage() {
  std::cerr
      << "usage: pmctl <stats|heatmap|trace|check|top|series> <dump.pmmetrics> [options]\n"
         "  stats   <dump>              counters, amplification, per-component breakdown\n"
         "  heatmap <dump> [--cols N]   ASCII XPLine write heatmap (default 64 cols)\n"
         "  trace   <dump> [-o f.json]  Chrome trace JSON to f.json (default stdout)\n"
         "  check   <dump>              every checker record (pmcheck, lockcheck);\n"
         "                              exit 3 on violations, 2 if no checker ran\n"
         "  top     <dump>              terminal dashboard (one-shot; `watch -n1` for live)\n"
         "  series  <dump> [--json]     per-epoch series as CSV (default) or JSON lines;\n"
         "                              exit 3 on component-sum violation\n"
         "Produce dumps by running any bench with CCL_METRICS=<path-prefix>; add\n"
         "CCL_TRACE=1 for `heatmap` and `trace`, and CCL_PMCHECK=1 and/or\n"
         "CCL_LOCKCHECK=1 for `pmctl check`.\n";
  return 64;
}

int Main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  std::string cmd = argv[1];
  std::string path = argv[2];
  PmMetricsFile f;
  std::string error;
  if (!metrics::ReadPmMetricsFile(path, &f, &error)) {
    std::fprintf(stderr, "pmctl: %s\n", error.c_str());
    return 1;
  }
  if (cmd == "top") {
    return CmdTop(f);
  }
  if (cmd == "series") {
    bool json = false;
    for (int i = 3; i < argc; i++) {
      if (std::strcmp(argv[i], "--json") == 0) {
        json = true;
      }
    }
    return CmdSeries(f, json);
  }
  if (cmd == "stats") {
    return CmdStats(f);
  }
  if (cmd == "check") {
    return CmdCheck(f);
  }
  if (cmd == "heatmap") {
    int columns = 64;
    for (int i = 3; i + 1 < argc; i++) {
      if (std::strcmp(argv[i], "--cols") == 0) {
        columns = std::atoi(argv[i + 1]);
      }
    }
    if (columns <= 0) {
      return Usage();
    }
    return CmdHeatmap(f, columns);
  }
  if (cmd == "trace") {
    std::string out_path;
    for (int i = 3; i + 1 < argc; i++) {
      if (std::strcmp(argv[i], "-o") == 0) {
        out_path = argv[i + 1];
      }
    }
    return CmdTrace(f, out_path);
  }
  return Usage();
}

}  // namespace
}  // namespace cclbt::pmctl

int main(int argc, char** argv) { return cclbt::pmctl::Main(argc, argv); }
