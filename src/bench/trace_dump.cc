#include "src/bench/trace_dump.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/pmsim/media_model.h"
#include "src/trace/trace.h"

namespace cclbt::bench {

namespace {

std::atomic<int> g_dump_seq{0};

const char* TagName(int tag) {
  switch (static_cast<pmsim::StreamTag>(tag)) {
    case pmsim::StreamTag::kOther:
      return "other";
    case pmsim::StreamTag::kLeaf:
      return "leaf";
    case pmsim::StreamTag::kLog:
      return "log";
    default:
      return "unknown";
  }
}

// File-name-safe version of a run label.
std::string Sanitize(const std::string& label) {
  std::string out = label.empty() ? "run" : label;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '-' || c == '_' || c == '.';
    if (!ok) {
      c = '-';
    }
  }
  return out;
}

}  // namespace

bool TraceDumpRequested() { return std::getenv("CCL_TRACE") != nullptr; }

std::string DumpPath(const char* env_var, std::atomic<int>& seq, const std::string& label,
                     const char* suffix) {
  const char* prefix = std::getenv(env_var);
  if (prefix == nullptr || *prefix == '\0') {
    return std::string();
  }
  return std::string(prefix) + "." +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed)) + "." + Sanitize(label) +
         suffix;
}

std::string DumpWriteFailed(const std::string& path) {
  std::fprintf(stderr, "dump: cannot write %s\n", path.c_str());
  return std::string();
}

std::string WriteTraceDump(kvindex::Runtime& runtime, const std::string& label,
                           const pmsim::StatsSnapshot& stats, double elapsed_virtual_ms) {
  std::string path = DumpPath("CCL_TRACE", g_dump_seq, label, ".pmtrace");
  if (path.empty()) {
    return path;
  }
  std::ofstream out(path);
  if (!out) {
    return DumpWriteFailed(path);
  }

  const pmsim::DeviceConfig& dc = runtime.device().config();
  out << "pmtrace 1\n";
  out << "label " << Sanitize(label) << "\n";
  out << "config pool_bytes " << dc.pool_bytes << "\n";
  out << "config num_sockets " << dc.num_sockets << "\n";
  out << "config dimms_per_socket " << dc.dimms_per_socket << "\n";
  out << "config backend " << pmsim::MediaBackendName(dc.backend) << "\n";
  out << "config xpline_bytes " << dc.xpline_bytes << "\n";
  out << "config elapsed_virtual_ms " << elapsed_virtual_ms << "\n";

  // Scalar stats straight from the field list, so a newly added counter shows
  // up in dumps without touching this file.
#define CCLBT_DUMP_STAT_S(name) out << "stat " #name " " << stats.name << "\n";
#define CCLBT_DUMP_STAT_A(name, n)
  CCLBT_PMSIM_STATS_FIELDS(CCLBT_DUMP_STAT_S, CCLBT_DUMP_STAT_A)
#undef CCLBT_DUMP_STAT_S
#undef CCLBT_DUMP_STAT_A

  for (int t = 0; t < static_cast<int>(pmsim::StreamTag::kCount); t++) {
    out << "stattag " << TagName(t) << " " << stats.media_writes_by_tag[t] << "\n";
  }
  for (int c = 0; c < trace::kNumComponents; c++) {
    out << "statcomp " << trace::ComponentName(static_cast<trace::Component>(c)) << " "
        << stats.media_write_bytes_by_component[c] << " "
        << stats.committed_lines_by_component[c] << "\n";
  }

  // Heatmap: fold per-XPLine write counts into at most kMaxHeatBins bins so
  // dumps stay small for multi-GB pools.
  pmsim::PmDevice& device = runtime.device();
  if (device.heatmap_enabled()) {
    constexpr uint64_t kMaxHeatBins = 512;
    uint64_t units = device.num_units();
    uint64_t per_bin = (units + kMaxHeatBins - 1) / kMaxHeatBins;
    per_bin = std::max<uint64_t>(per_bin, 1);
    out << "heat " << units << " " << per_bin << "\n";
    for (uint64_t first = 0; first < units; first += per_bin) {
      uint64_t end = std::min(units, first + per_bin);
      uint64_t writes = 0;
      uint64_t hottest_unit = first;
      uint64_t hottest_writes = 0;
      for (uint64_t u = first; u < end; u++) {
        uint64_t w = device.UnitWriteCount(u);
        writes += w;
        if (w > hottest_writes) {
          hottest_writes = w;
          hottest_unit = u;
        }
      }
      if (writes == 0) {
        continue;  // sparse: empty bins are implicit
      }
      out << "heatbin " << first << " " << (end - first) << " " << writes << " "
          << hottest_unit << " " << hottest_writes << "\n";
    }
  }

  for (const trace::NamedRing& ring : trace::CollectRings()) {
    out << "ring " << ring.worker_id << " " << ring.socket << " " << ring.emitted << " "
        << ring.events.size() << "\n";
    for (const trace::TraceEvent& ev : ring.events) {
      out << "event " << ring.worker_id << " " << ev.t_ns << " "
          << static_cast<int>(ev.type) << " " << static_cast<int>(ev.comp) << " " << ev.arg
          << " " << ev.aux << " " << ev.dimm << "\n";
    }
  }

  out.flush();
  return out ? path : DumpWriteFailed(path);
}

bool AppendPmCheckSection(const std::string& path, const pmsim::PmCheckReport& report) {
  if (!report.enabled) {
    return true;  // nothing to append; `pmctl check` reports not-enabled
  }
  std::ofstream out(path, std::ios::app);
  if (!out) {
    return false;
  }
  // Version 2 adds the per-class informational column (backend-downgraded
  // severities, DESIGN.md §14) and the pmcheckinfo diagnostic keyword;
  // version-1 readers skip the unknown keyword and extra column.
  out << "pmcheck 2\n";
  out << "pmcheckstat fence_epochs " << report.fence_epochs << "\n";
  out << "pmcheckstat lines_tracked " << report.lines_tracked << "\n";
  // Explicit truncation marker: nonzero means the kMaxDiagnostics retention
  // cap dropped materialized diagnostics (counts stay exact). `pmctl check`
  // warns on it so a capped run is never read as clean-and-complete.
  out << "pmcheckstat diagnostics_truncated " << report.diagnostics_truncated << "\n";
  for (int c = 0; c < pmsim::kNumPmCheckClasses; c++) {
    out << "pmcheckclass " << pmsim::PmCheckClassName(static_cast<pmsim::PmCheckClass>(c))
        << " " << report.counts[static_cast<size_t>(c)] << " "
        << report.suppressed[static_cast<size_t>(c)] << " "
        << report.info[static_cast<size_t>(c)] << "\n";
  }
  for (const pmsim::PmCheckDiagnostic& d : report.diagnostics) {
    out << (d.info ? "pmcheckinfo " : "pmcheckdiag ")
        << pmsim::PmCheckClassName(d.cls) << " " << d.line << " "
        << d.xpline << " " << d.dimm << " " << trace::ComponentName(d.comp) << " "
        << d.worker << " " << d.fence_epoch << " " << d.detail << "\n";
    for (const pmsim::PmCheckEvent& ev : d.recent) {
      out << "pmcheckev " << pmsim::PmCheckEventKindName(ev.kind) << " "
          << trace::ComponentName(ev.comp) << " " << ev.worker << " " << ev.detail << " "
          << ev.fence_epoch << "\n";
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

bool AppendLockCheckSection(const std::string& path, const pmsim::LockCheckReport& report) {
  if (!report.enabled) {
    return true;  // nothing to append; `pmctl locks` reports not-enabled
  }
  std::ofstream out(path, std::ios::app);
  if (!out) {
    return false;
  }
  out << "lockcheck 1\n";
  out << "lockcheckstat locks_tracked " << report.locks_tracked << "\n";
  out << "lockcheckstat lines_tracked " << report.lines_tracked << "\n";
  out << "lockcheckstat order_edges " << report.order_edges << "\n";
  out << "lockcheckstat seq_read_sections " << report.seq_read_sections << "\n";
  out << "lockcheckstat seq_validate_failures " << report.seq_validate_failures << "\n";
  out << "lockcheckstat diagnostics_truncated " << report.diagnostics_truncated << "\n";
  for (int c = 0; c < pmsim::kNumLockCheckClasses; c++) {
    out << "lockcheckclass "
        << pmsim::LockCheckClassName(static_cast<pmsim::LockCheckClass>(c)) << " "
        << report.counts[static_cast<size_t>(c)] << " "
        << report.suppressed[static_cast<size_t>(c)] << " "
        << report.info[static_cast<size_t>(c)] << "\n";
  }
  for (const pmsim::LockCheckDiagnostic& d : report.diagnostics) {
    out << (d.info ? "lockcheckinfo " : "lockcheckdiag ") << pmsim::LockCheckClassName(d.cls)
        << " " << d.line << " " << trace::ComponentName(d.comp) << " " << d.worker << " "
        << d.lock << " " << d.lock2 << " " << d.detail << "\n";
    for (const pmsim::LockCheckEvent& ev : d.recent) {
      out << "lockcheckev " << pmsim::LockCheckEventKindName(ev.kind) << " "
          << trace::ComponentName(ev.comp) << " " << ev.worker << " "
          << (ev.lock[0] == '\0' ? "-" : ev.lock) << " " << ev.detail << "\n";
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace cclbt::bench
