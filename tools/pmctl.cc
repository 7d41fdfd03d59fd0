// pmctl: inspector for .pmtrace dumps produced by the bench driver (set
// CCL_TRACE=<prefix> and run any bench; one dump per measured run). Modeled
// on ipmctl's show/performance verbs, but reading the simulator's richer
// attribution data instead of DIMM SMART counters.
//
//   pmctl stats   <dump>            amplification + per-component table
//   pmctl heatmap <dump> [--cols N] ASCII XPLine write-count heatmap
//   pmctl trace   <dump> [-o f]     Chrome trace-event JSON (Perfetto-loadable)
//   pmctl check   <dump>            every checker section (pmcheck, lockcheck);
//                                   exit 3 on violations, 2 if no checker ran
//
// It also reads the .pmmetrics JSON-lines time series written when
// CCL_METRICS=<prefix> is set (src/bench/measured_phase.h):
//   pmctl top     <dump.pmmetrics>          one-shot terminal dashboard (no
//                                           polling by design — wrap with
//                                           `watch -n1` for a live view)
//   pmctl series  <dump.pmmetrics> [--json] per-epoch time series as CSV
//                                           (default) or raw JSON lines;
//                                           exits 3 if any epoch's
//                                           per-component bytes fail to sum
//                                           to that epoch's media_write_bytes
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/metrics/pmmetrics.h"
#include "src/trace/component.h"
#include "src/trace/event.h"
#include "src/trace/exporters.h"
#include "src/trace/trace.h"

namespace cclbt::pmctl {
namespace {

struct CompRow {
  std::string name;
  uint64_t media_bytes = 0;
  uint64_t committed_lines = 0;
};

// One recent event of a checker diagnostic. `fields` holds the checker's
// own `key=value` fields verbatim.
struct CheckEvent {
  std::string kind;
  std::string comp;
  int worker = 0;
  uint64_t detail = 0;
  std::string fields;
};

struct CheckDiag {
  std::string cls;
  uint64_t line = 0;
  std::string comp;
  int worker = 0;
  std::string detail;
  // Informational finding (checkerinfo keyword): never counts toward the
  // exit status.
  bool info = false;
  std::string fields;
  std::vector<CheckEvent> recent;
};

struct CheckClassRow {
  std::string name;
  uint64_t count = 0;
  uint64_t suppressed = 0;
  uint64_t info = 0;
};

// One checker's section of a dump (present iff the run had that checker on).
struct CheckerSection {
  std::string name;
  std::vector<std::pair<std::string, uint64_t>> stats;
  std::vector<CheckClassRow> classes;
  std::vector<CheckDiag> diags;
};

struct Dump {
  int version = 0;
  std::string label;
  std::map<std::string, std::string> config;
  std::vector<std::pair<std::string, uint64_t>> stats;  // declaration order
  std::vector<CompRow> comps;
  uint64_t heat_units = 0;
  uint64_t heat_per_bin = 0;
  std::vector<trace::HeatBin> heat_bins;  // sparse, as dumped
  std::vector<trace::NamedRing> rings;
  std::vector<CheckerSection> checkers;  // in dump order
};

uint64_t Stat(const Dump& d, const std::string& name) {
  for (const auto& [k, v] : d.stats) {
    if (k == name) {
      return v;
    }
  }
  return 0;
}

// The `key=value` fields that end a checker line, space-separated.
std::string RestOfLine(std::istringstream& ss) {
  std::string rest;
  for (std::string field; ss >> field;) {
    rest += " " + field;
  }
  return rest;
}

// Parses one line of the `checker*` keyword family (src/bench/trace_dump.h):
// the checker's name, the keyword's fixed fields, then the checker's own
// fields. Returns false on a malformed line or one outside its section.
bool ParseCheckerLine(const std::string& kw, std::istringstream& ss, Dump& d) {
  std::string name;
  ss >> name;
  if (kw == "checker") {
    int version = 0;
    ss >> version;
    d.checkers.emplace_back().name = name;
    return static_cast<bool>(ss);
  }
  if (d.checkers.empty() || d.checkers.back().name != name) {
    return false;
  }
  CheckerSection& s = d.checkers.back();
  if (kw == "checkerstat") {
    std::string stat;
    uint64_t value = 0;
    ss >> stat >> value;
    s.stats.emplace_back(stat, value);
    return static_cast<bool>(ss);
  }
  if (kw == "checkerclass") {
    CheckClassRow row;
    ss >> row.name >> row.count >> row.suppressed >> row.info;
    s.classes.push_back(row);
    return static_cast<bool>(ss);
  }
  if (kw == "checkerdiag" || kw == "checkerinfo") {
    CheckDiag diag;
    if (!(ss >> diag.cls >> diag.line >> diag.comp >> diag.worker >> diag.detail)) {
      return false;
    }
    diag.info = kw == "checkerinfo";
    diag.fields = RestOfLine(ss);
    s.diags.push_back(std::move(diag));
    return true;
  }
  if (kw == "checkerev") {
    CheckEvent ev;
    if (s.diags.empty() || !(ss >> ev.kind >> ev.comp >> ev.worker >> ev.detail)) {
      return false;
    }
    ev.fields = RestOfLine(ss);
    s.diags.back().recent.push_back(std::move(ev));
    return true;
  }
  return true;  // unknown keyword of the family: skip
}

bool ParseDump(const std::string& path, Dump& d) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "pmctl: cannot open " << path << "\n";
    return false;
  }
  std::string line;
  trace::NamedRing* ring = nullptr;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    lineno++;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ss(line);
    std::string kw;
    ss >> kw;
    if (kw == "pmtrace") {
      ss >> d.version;
    } else if (kw == "label") {
      ss >> d.label;
    } else if (kw == "config") {
      std::string key, value;
      ss >> key >> value;
      d.config[key] = value;
    } else if (kw == "stat") {
      std::string name;
      uint64_t value = 0;
      ss >> name >> value;
      d.stats.emplace_back(name, value);
    } else if (kw == "statcomp") {
      CompRow row;
      ss >> row.name >> row.media_bytes >> row.committed_lines;
      d.comps.push_back(row);
    } else if (kw == "heat") {
      ss >> d.heat_units >> d.heat_per_bin;
    } else if (kw == "heatbin") {
      trace::HeatBin bin;
      ss >> bin.first_unit >> bin.units >> bin.writes >> bin.hottest_unit >>
          bin.hottest_writes;
      d.heat_bins.push_back(bin);
    } else if (kw == "ring") {
      trace::NamedRing r;
      uint64_t retained = 0;
      ss >> r.worker_id >> r.socket >> r.emitted >> retained;
      r.events.reserve(retained);
      d.rings.push_back(std::move(r));
      ring = &d.rings.back();
    } else if (kw == "event") {
      int worker = 0;
      uint64_t t_ns = 0, arg = 0;
      unsigned type = 0, comp = 0, aux = 0, dimm = 0;
      ss >> worker >> t_ns >> type >> comp >> arg >> aux >> dimm;
      if (ring == nullptr || ring->worker_id != worker) {
        std::cerr << "pmctl: " << path << ":" << lineno << ": event outside its ring\n";
        return false;
      }
      trace::TraceEvent ev;
      ev.t_ns = t_ns;
      ev.arg = arg;
      ev.aux = aux;
      ev.type = static_cast<uint8_t>(type);
      ev.comp = static_cast<uint8_t>(comp);
      ev.dimm = static_cast<uint16_t>(dimm);
      ring->events.push_back(ev);
    } else if (kw.rfind("checker", 0) == 0) {
      if (ParseCheckerLine(kw, ss, d)) {
        continue;
      }
      ss.setstate(std::ios::failbit);  // reported as malformed below
    } else {
      // Unknown keyword: skip (forward compatibility with newer dumps).
      continue;
    }
    if (!ss && kw != "pmtrace") {
      std::cerr << "pmctl: " << path << ":" << lineno << ": malformed '" << kw
                << "' line\n";
      return false;
    }
  }
  if (d.version != 1) {
    std::cerr << "pmctl: " << path << ": unsupported pmtrace version " << d.version
              << "\n";
    return false;
  }
  return true;
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

int CmdStats(const Dump& d) {
  uint64_t user = Stat(d, "user_bytes");
  uint64_t xpb = Stat(d, "xpbuffer_write_bytes");
  uint64_t media = Stat(d, "media_write_bytes");
  std::printf("run %s (elapsed %s virtual ms)\n", d.label.c_str(),
              d.config.count("elapsed_virtual_ms") ? d.config.at("elapsed_virtual_ms").c_str()
                                                   : "?");
  std::printf("\n-- counters --\n");
  for (const auto& [name, value] : d.stats) {
    std::printf("  %-28s %20llu\n", name.c_str(), static_cast<unsigned long long>(value));
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
  if (!d.comps.empty()) {
    std::printf("\n-- media write bytes by component (code scope) --\n");
    uint64_t comp_total = 0;
    for (const CompRow& row : d.comps) {
      comp_total += row.media_bytes;
    }
    for (const CompRow& row : d.comps) {
      if (row.media_bytes == 0 && row.committed_lines == 0) {
        continue;
      }
      double pct = media == 0 ? 0.0
                              : 100.0 * static_cast<double>(row.media_bytes) /
                                    static_cast<double>(media);
      std::printf("  %-12s %14llu  %6.2f%%   (%s, %llu committed lines)\n",
                  row.name.c_str(), static_cast<unsigned long long>(row.media_bytes), pct,
                  HumanBytes(row.media_bytes).c_str(),
                  static_cast<unsigned long long>(row.committed_lines));
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

int CmdHeatmap(const Dump& d, int columns) {
  if (d.heat_units == 0 || d.heat_per_bin == 0) {
    std::printf("(no heatmap in dump; run under CCL_TRACE with a driver that enables "
                "record_unit_heatmap)\n");
    return 0;
  }
  // Reconstitute the dense bin vector (the dump omits empty bins).
  size_t num_bins = static_cast<size_t>((d.heat_units + d.heat_per_bin - 1) / d.heat_per_bin);
  std::vector<trace::HeatBin> bins(num_bins);
  for (size_t i = 0; i < num_bins; i++) {
    bins[i].first_unit = static_cast<uint64_t>(i) * d.heat_per_bin;
    bins[i].units = std::min<uint64_t>(d.heat_per_bin, d.heat_units - bins[i].first_unit);
  }
  uint64_t total_writes = 0;
  trace::HeatBin hottest;
  for (const trace::HeatBin& bin : d.heat_bins) {
    size_t idx = static_cast<size_t>(bin.first_unit / d.heat_per_bin);
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
              d.label.c_str(), static_cast<unsigned long long>(total_writes),
              static_cast<unsigned long long>(d.heat_units),
              static_cast<unsigned long long>(d.heat_per_bin));
  trace::RenderHeatmap(std::cout, bins, columns);
  if (hottest.hottest_writes > 0) {
    std::printf("hottest XPLine: unit %llu with %llu writes\n",
                static_cast<unsigned long long>(hottest.hottest_unit),
                static_cast<unsigned long long>(hottest.hottest_writes));
  }
  return 0;
}

int CmdTrace(const Dump& d, const std::string& out_path) {
  if (d.rings.empty()) {
    std::cerr << "pmctl: no trace rings in dump\n";
    return 1;
  }
  uint64_t total = 0, retained = 0;
  for (const trace::NamedRing& ring : d.rings) {
    total += ring.emitted;
    retained += ring.events.size();
  }
  std::cerr << "pmctl: " << d.rings.size() << " worker rings, " << retained << "/" << total
            << " events retained\n";
  if (out_path.empty() || out_path == "-") {
    trace::ExportChromeTraceJson(std::cout, d.rings, d.label);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "pmctl: cannot write " << out_path << "\n";
    return 1;
  }
  trace::ExportChromeTraceJson(out, d.rings, d.label);
  out.flush();
  if (!out) {
    std::cerr << "pmctl: write to " << out_path << " failed\n";
    return 1;
  }
  std::cerr << "pmctl: wrote " << out_path << " (load in Perfetto / chrome://tracing)\n";
  return 0;
}

// Every checker section of the dump: pmcheck (DESIGN.md §11) and lockcheck
// (§16). Exit status: 0 clean, 2 no checker was enabled for the run, 3
// violations in any section. Informational findings never gate it.
int CmdCheck(const Dump& d) {
  if (d.checkers.empty()) {
    std::printf("run %s: no checker was enabled for this run\n", d.label.c_str());
    std::printf("(rerun with CCL_PMCHECK=1 and/or CCL_LOCKCHECK=1 and CCL_TRACE=<prefix> to "
                "produce a checked dump)\n");
    return 2;
  }
  auto backend = d.config.find("backend");
  bool violations = false;
  for (const CheckerSection& s : d.checkers) {
    uint64_t total = 0;
    uint64_t suppressed = 0;
    uint64_t info = 0;
    for (const CheckClassRow& row : s.classes) {
      total += row.count;
      suppressed += row.suppressed;
      info += row.info;
    }
    violations = violations || total != 0;
    std::printf("run %s: %s %s — %llu violation(s), %llu informational, %llu suppressed\n",
                d.label.c_str(), s.name.c_str(), total == 0 ? "CLEAN" : "VIOLATIONS",
                static_cast<unsigned long long>(total), static_cast<unsigned long long>(info),
                static_cast<unsigned long long>(suppressed));
    if (backend != d.config.end()) {
      std::printf("  %-22s %14s\n", "backend", backend->second.c_str());
    }
    for (const auto& [name, value] : s.stats) {
      std::printf("  %-22s %14llu\n", name.c_str(), static_cast<unsigned long long>(value));
      if (name == "diagnostics_truncated" && value != 0) {
        std::printf("  WARNING: %llu diagnostic(s) beyond the retention cap were counted "
                    "but not materialized — the list below is incomplete\n",
                    static_cast<unsigned long long>(value));
      }
    }
    std::printf("\n-- violations by class --\n");
    for (const CheckClassRow& row : s.classes) {
      std::printf("  %-22s %14llu   (%llu info, %llu suppressed)\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.count),
                  static_cast<unsigned long long>(row.info),
                  static_cast<unsigned long long>(row.suppressed));
    }
    if (!s.diags.empty()) {
      std::printf("\n-- diagnostics --\n");
      size_t i = 0;
      for (const CheckDiag& diag : s.diags) {
        std::printf("[%zu] %s%s: %s\n", i++, diag.cls.c_str(), diag.info ? " (info)" : "",
                    diag.detail.c_str());
        std::printf("    line 0x%llx, component %s, worker %d,%s\n",
                    static_cast<unsigned long long>(diag.line), diag.comp.c_str(), diag.worker,
                    diag.fields.c_str());
        for (const CheckEvent& ev : diag.recent) {
          std::printf("      ... %-9s comp=%-10s worker=%-5d detail=0x%llx%s\n", ev.kind.c_str(),
                      ev.comp.c_str(), ev.worker, static_cast<unsigned long long>(ev.detail),
                      ev.fields.c_str());
        }
      }
    }
    std::printf("\n");
  }
  return violations ? 3 : 0;
}

// --- .pmmetrics commands ----------------------------------------------------

// Verifies the per-epoch extension of the PR 2 sum-to-total invariant: in
// every epoch, the windowed per-component media bytes must sum exactly to
// the windowed media_write_bytes. Returns the number of violating epochs
// (reported to stderr).
size_t CheckEpochComponentSums(const metrics::PmMetricsFile& f) {
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

int CmdTop(const metrics::PmMetricsFile& f) {
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

int CmdSeries(const metrics::PmMetricsFile& f, bool json) {
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
    for (const std::string& c : f.header.counters) {
      head += "," + c;
    }
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
      for (size_t c = 0; c < f.header.counters.size(); c++) {
        row += "," + cell(c < e.counters.size() ? e.counters[c] : 0);
      }
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
      << "usage: pmctl <stats|heatmap|trace|check|top|series> <dump> [options]\n"
         "  stats   <dump.pmtrace>              counters, amplification, per-component breakdown\n"
         "  heatmap <dump.pmtrace> [--cols N]   ASCII XPLine write heatmap (default 64 cols)\n"
         "  trace   <dump.pmtrace> [-o f.json]  Chrome trace JSON to f.json (default stdout)\n"
         "  check   <dump.pmtrace>              every checker section (pmcheck, lockcheck);\n"
         "                                      exit 3 on violations, 2 if no checker ran\n"
         "  top     <dump.pmmetrics>            terminal dashboard (one-shot; `watch -n1` for live)\n"
         "  series  <dump.pmmetrics> [--json]   per-epoch series as CSV (default) or JSON lines;\n"
         "                                      exit 3 on component-sum violation\n"
         "Produce .pmtrace dumps by running any bench with CCL_TRACE=<path-prefix>\n"
         "(add CCL_PMCHECK=1 and/or CCL_LOCKCHECK=1 for `pmctl check`), and\n"
         ".pmmetrics dumps with CCL_METRICS=<path-prefix>.\n";
  return 64;
}

int Main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  std::string cmd = argv[1];
  std::string path = argv[2];
  if (cmd == "top" || cmd == "series") {
    metrics::PmMetricsFile f;
    std::string error;
    if (!metrics::ReadPmMetricsFile(path, &f, &error)) {
      std::fprintf(stderr, "pmctl: %s\n", error.c_str());
      return 1;
    }
    if (cmd == "top") {
      return CmdTop(f);
    }
    bool json = false;
    for (int i = 3; i < argc; i++) {
      if (std::strcmp(argv[i], "--json") == 0) {
        json = true;
      }
    }
    return CmdSeries(f, json);
  }
  Dump d;
  if (!ParseDump(path, d)) {
    return 1;
  }
  if (cmd == "stats") {
    return CmdStats(d);
  }
  if (cmd == "check") {
    return CmdCheck(d);
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
    return CmdHeatmap(d, columns);
  }
  if (cmd == "trace") {
    std::string out_path;
    for (int i = 3; i + 1 < argc; i++) {
      if (std::strcmp(argv[i], "-o") == 0) {
        out_path = argv[i + 1];
      }
    }
    return CmdTrace(d, out_path);
  }
  return Usage();
}

}  // namespace
}  // namespace cclbt::pmctl

int main(int argc, char** argv) { return cclbt::pmctl::Main(argc, argv); }
