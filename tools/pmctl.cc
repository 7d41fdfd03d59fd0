// pmctl: inspector for .pmtrace dumps produced by the bench driver (set
// CCL_TRACE=<prefix> and run any bench; one dump per measured run). Modeled
// on ipmctl's show/performance verbs, but reading the simulator's richer
// attribution data instead of DIMM SMART counters.
//
//   pmctl stats   <dump>            amplification + per-tag/per-component table
//   pmctl heatmap <dump> [--cols N] ASCII XPLine write-count heatmap
//   pmctl trace   <dump> [-o f]     Chrome trace-event JSON (Perfetto-loadable)
//   pmctl check   <dump>            pmcheck persistency report; exit 3 on violations
//   pmctl locks   <dump>            lockcheck locking report; exit 3 on violations
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

struct TagRow {
  std::string name;
  uint64_t writes = 0;
};

struct CompRow {
  std::string name;
  uint64_t media_bytes = 0;
  uint64_t committed_lines = 0;
};

// One recent-event line attached to a pmcheck diagnostic.
struct CheckEvent {
  std::string kind;
  std::string comp;
  int worker = 0;
  uint64_t detail = 0;
  uint64_t fence_epoch = 0;
};

struct CheckDiag {
  std::string cls;
  uint64_t line = 0;
  uint64_t xpline = 0;
  int dimm = 0;
  std::string comp;
  int worker = 0;
  uint64_t fence_epoch = 0;
  std::string detail;
  // Informational diagnostic (backend-downgraded severity; pmcheckinfo
  // keyword in v2 dumps). Never counts toward the exit status.
  bool info = false;
  std::vector<CheckEvent> recent;
};

struct CheckClassRow {
  std::string name;
  uint64_t count = 0;
  uint64_t suppressed = 0;
  uint64_t info = 0;  // v2 dumps only; 0 for v1
};

// One recent-event line attached to a lockcheck diagnostic.
struct LockEvent {
  std::string kind;
  std::string comp;
  int worker = 0;
  std::string lock;  // "-" when not lock-related
  uint64_t detail = 0;
};

struct LockDiag {
  std::string cls;
  uint64_t line = 0;  // line-aligned pool offset; 0 for lock_cycle
  std::string comp;
  int worker = 0;
  std::string lock;   // primary lock name ("none" when not lock-related)
  std::string lock2;  // cycle-edge target for lock_cycle, else "none"
  std::string detail;
  // Informational diagnostic (fence_publish_gap without pmcheck
  // confirmation). Never counts toward the exit status.
  bool info = false;
  std::vector<LockEvent> recent;
};

struct Dump {
  int version = 0;
  std::string label;
  std::map<std::string, std::string> config;
  std::vector<std::pair<std::string, uint64_t>> stats;  // declaration order
  std::vector<TagRow> tags;
  std::vector<CompRow> comps;
  uint64_t heat_units = 0;
  uint64_t heat_per_bin = 0;
  std::vector<trace::HeatBin> heat_bins;  // sparse, as dumped
  std::vector<trace::NamedRing> rings;
  // pmcheck section (present iff the run had CCL_PMCHECK=1 / RunConfig on).
  int pmcheck_version = 0;
  std::vector<std::pair<std::string, uint64_t>> pmcheck_stats;
  std::vector<CheckClassRow> pmcheck_classes;
  std::vector<CheckDiag> pmcheck_diags;
  // lockcheck section (present iff the run had CCL_LOCKCHECK=1 / RunConfig on).
  int lockcheck_version = 0;
  std::vector<std::pair<std::string, uint64_t>> lockcheck_stats;
  std::vector<CheckClassRow> lockcheck_classes;
  std::vector<LockDiag> lockcheck_diags;
};

uint64_t Stat(const Dump& d, const std::string& name) {
  for (const auto& [k, v] : d.stats) {
    if (k == name) {
      return v;
    }
  }
  return 0;
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
    } else if (kw == "stattag") {
      TagRow row;
      ss >> row.name >> row.writes;
      d.tags.push_back(row);
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
    } else if (kw == "pmcheck") {
      ss >> d.pmcheck_version;
    } else if (kw == "pmcheckstat") {
      std::string name;
      uint64_t value = 0;
      ss >> name >> value;
      d.pmcheck_stats.emplace_back(name, value);
    } else if (kw == "pmcheckclass") {
      CheckClassRow row;
      ss >> row.name >> row.count >> row.suppressed;
      uint64_t info = 0;
      if (ss >> info) {
        row.info = info;
      } else {
        ss.clear();  // v1 dumps have no info column
      }
      d.pmcheck_classes.push_back(row);
    } else if (kw == "pmcheckdiag" || kw == "pmcheckinfo") {
      CheckDiag diag;
      ss >> diag.cls >> diag.line >> diag.xpline >> diag.dimm >> diag.comp >> diag.worker >>
          diag.fence_epoch >> diag.detail;
      diag.info = kw == "pmcheckinfo";
      d.pmcheck_diags.push_back(std::move(diag));
    } else if (kw == "pmcheckev") {
      CheckEvent ev;
      ss >> ev.kind >> ev.comp >> ev.worker >> ev.detail >> ev.fence_epoch;
      if (d.pmcheck_diags.empty()) {
        std::cerr << "pmctl: " << path << ":" << lineno << ": pmcheckev outside a diagnostic\n";
        return false;
      }
      d.pmcheck_diags.back().recent.push_back(std::move(ev));
    } else if (kw == "lockcheck") {
      ss >> d.lockcheck_version;
    } else if (kw == "lockcheckstat") {
      std::string name;
      uint64_t value = 0;
      ss >> name >> value;
      d.lockcheck_stats.emplace_back(name, value);
    } else if (kw == "lockcheckclass") {
      CheckClassRow row;
      ss >> row.name >> row.count >> row.suppressed >> row.info;
      d.lockcheck_classes.push_back(row);
    } else if (kw == "lockcheckdiag" || kw == "lockcheckinfo") {
      LockDiag diag;
      ss >> diag.cls >> diag.line >> diag.comp >> diag.worker >> diag.lock >> diag.lock2 >>
          diag.detail;
      diag.info = kw == "lockcheckinfo";
      d.lockcheck_diags.push_back(std::move(diag));
    } else if (kw == "lockcheckev") {
      LockEvent ev;
      ss >> ev.kind >> ev.comp >> ev.worker >> ev.lock >> ev.detail;
      if (d.lockcheck_diags.empty()) {
        std::cerr << "pmctl: " << path << ":" << lineno
                  << ": lockcheckev outside a diagnostic\n";
        return false;
      }
      d.lockcheck_diags.back().recent.push_back(std::move(ev));
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
  if (!d.tags.empty()) {
    std::printf("\n-- media writes by stream tag (address range) --\n");
    uint64_t total = 0;
    for (const TagRow& row : d.tags) {
      total += row.writes;
    }
    for (const TagRow& row : d.tags) {
      double pct = total == 0 ? 0.0
                              : 100.0 * static_cast<double>(row.writes) /
                                    static_cast<double>(total);
      std::printf("  %-12s %14llu  %6.2f%%\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.writes), pct);
    }
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

// Persistency report from the dump's pmcheck section (DESIGN.md §11).
// Exit status: 0 clean, 2 checker was not enabled for the run, 3 violations.
int CmdCheck(const Dump& d) {
  if (d.pmcheck_version == 0) {
    std::printf("run %s: pmcheck was not enabled for this run\n", d.label.c_str());
    std::printf("(rerun with CCL_PMCHECK=1 and CCL_TRACE=<prefix> to produce a checked dump)\n");
    return 2;
  }
  uint64_t total = 0;
  uint64_t suppressed = 0;
  uint64_t info = 0;
  for (const CheckClassRow& row : d.pmcheck_classes) {
    total += row.count;
    suppressed += row.suppressed;
    info += row.info;
  }
  // Informational counts (backend-downgraded classes) are reported but never
  // gate the exit status.
  std::printf("run %s: pmcheck %s — %llu violation(s), %llu informational, %llu suppressed\n",
              d.label.c_str(), total == 0 ? "CLEAN" : "VIOLATIONS",
              static_cast<unsigned long long>(total), static_cast<unsigned long long>(info),
              static_cast<unsigned long long>(suppressed));
  auto backend = d.config.find("backend");
  if (backend != d.config.end()) {
    std::printf("  %-22s %14s\n", "backend", backend->second.c_str());
  }
  for (const auto& [name, value] : d.pmcheck_stats) {
    std::printf("  %-22s %14llu\n", name.c_str(), static_cast<unsigned long long>(value));
    if (name == "diagnostics_truncated" && value != 0) {
      std::printf("  WARNING: %llu diagnostic(s) beyond the retention cap were counted "
                  "but not materialized — the list below is incomplete\n",
                  static_cast<unsigned long long>(value));
    }
  }
  std::printf("\n-- violations by class --\n");
  for (const CheckClassRow& row : d.pmcheck_classes) {
    std::printf("  %-22s %14llu   (%llu info, %llu suppressed)\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count),
                static_cast<unsigned long long>(row.info),
                static_cast<unsigned long long>(row.suppressed));
  }
  if (!d.pmcheck_diags.empty()) {
    std::printf("\n-- diagnostics --\n");
    size_t i = 0;
    for (const CheckDiag& diag : d.pmcheck_diags) {
      std::printf("[%zu] %s%s: %s\n", i++, diag.cls.c_str(), diag.info ? " (info)" : "",
                  diag.detail.c_str());
      std::printf("    line 0x%llx (XPLine %llu, DIMM %d), component %s, worker %d, "
                  "fence epoch %llu\n",
                  static_cast<unsigned long long>(diag.line),
                  static_cast<unsigned long long>(diag.xpline), diag.dimm, diag.comp.c_str(),
                  diag.worker, static_cast<unsigned long long>(diag.fence_epoch));
      for (const CheckEvent& ev : diag.recent) {
        std::printf("      ... %-6s comp=%-10s worker=%-3d detail=0x%llx epoch=%llu\n",
                    ev.kind.c_str(), ev.comp.c_str(), ev.worker,
                    static_cast<unsigned long long>(ev.detail),
                    static_cast<unsigned long long>(ev.fence_epoch));
      }
    }
  }
  return total == 0 ? 0 : 3;
}

// Locking report from the dump's lockcheck section (DESIGN.md §16).
// Exit status: 0 clean, 2 checker was not enabled for the run, 3 violations.
int CmdLocks(const Dump& d) {
  if (d.lockcheck_version == 0) {
    std::printf("run %s: lockcheck was not enabled for this run\n", d.label.c_str());
    std::printf("(rerun with CCL_LOCKCHECK=1 and CCL_TRACE=<prefix> to produce a checked "
                "dump)\n");
    return 2;
  }
  uint64_t total = 0;
  uint64_t suppressed = 0;
  uint64_t info = 0;
  for (const CheckClassRow& row : d.lockcheck_classes) {
    total += row.count;
    suppressed += row.suppressed;
    info += row.info;
  }
  // Informational counts (fence_publish_gap without pmcheck confirmation)
  // are reported but never gate the exit status.
  std::printf("run %s: lockcheck %s — %llu violation(s), %llu informational, %llu "
              "suppressed\n",
              d.label.c_str(), total == 0 ? "CLEAN" : "VIOLATIONS",
              static_cast<unsigned long long>(total), static_cast<unsigned long long>(info),
              static_cast<unsigned long long>(suppressed));
  for (const auto& [name, value] : d.lockcheck_stats) {
    std::printf("  %-22s %14llu\n", name.c_str(), static_cast<unsigned long long>(value));
    if (name == "diagnostics_truncated" && value != 0) {
      std::printf("  WARNING: %llu diagnostic(s) beyond the retention cap were counted "
                  "but not materialized — the list below is incomplete\n",
                  static_cast<unsigned long long>(value));
    }
  }
  std::printf("\n-- violations by class --\n");
  for (const CheckClassRow& row : d.lockcheck_classes) {
    std::printf("  %-22s %14llu   (%llu info, %llu suppressed)\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count),
                static_cast<unsigned long long>(row.info),
                static_cast<unsigned long long>(row.suppressed));
  }
  if (!d.lockcheck_diags.empty()) {
    std::printf("\n-- diagnostics --\n");
    size_t i = 0;
    for (const LockDiag& diag : d.lockcheck_diags) {
      std::printf("[%zu] %s%s: %s\n", i++, diag.cls.c_str(), diag.info ? " (info)" : "",
                  diag.detail.c_str());
      if (diag.cls == "lock_cycle") {
        std::printf("    order edge %s -> %s, component %s, worker %d\n", diag.lock.c_str(),
                    diag.lock2.c_str(), diag.comp.c_str(), diag.worker);
      } else {
        std::printf("    line 0x%llx, lock %s, component %s, worker %d\n",
                    static_cast<unsigned long long>(diag.line), diag.lock.c_str(),
                    diag.comp.c_str(), diag.worker);
      }
      for (const LockEvent& ev : diag.recent) {
        std::printf("      ... %-8s comp=%-10s worker=%-3d lock=%-18s detail=0x%llx\n",
                    ev.kind.c_str(), ev.comp.c_str(), ev.worker, ev.lock.c_str(),
                    static_cast<unsigned long long>(ev.detail));
      }
    }
  }
  return total == 0 ? 0 : 3;
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
    std::printf("\n(no epoch records; os_parallel runs collect totals only)\n");
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
      << "usage: pmctl <stats|heatmap|trace|check|locks|top|series> <dump> [options]\n"
         "  stats   <dump.pmtrace>              counters, amplification, per-component breakdown\n"
         "  heatmap <dump.pmtrace> [--cols N]   ASCII XPLine write heatmap (default 64 cols)\n"
         "  trace   <dump.pmtrace> [-o f.json]  Chrome trace JSON to f.json (default stdout)\n"
         "  check   <dump.pmtrace>              pmcheck persistency report; exit 3 on violations\n"
         "  locks   <dump.pmtrace>              lockcheck locking report; exit 3 on violations\n"
         "  top     <dump.pmmetrics>            terminal dashboard (one-shot; `watch -n1` for live)\n"
         "  series  <dump.pmmetrics> [--json]   per-epoch series as CSV (default) or JSON lines;\n"
         "                                      exit 3 on component-sum violation\n"
         "Produce .pmtrace dumps by running any bench with CCL_TRACE=<path-prefix>\n"
         "(add CCL_PMCHECK=1 / CCL_LOCKCHECK=1 for dumps `pmctl check` / `pmctl locks`\n"
         "can report on), and\n"
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
  if (cmd == "locks") {
    return CmdLocks(d);
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
