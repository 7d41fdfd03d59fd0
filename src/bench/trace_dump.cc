#include "src/bench/trace_dump.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/pmsim/lockcheck.h"
#include "src/pmsim/media_model.h"
#include "src/pmsim/pmcheck.h"
#include "src/trace/trace.h"

namespace cclbt::bench {

namespace {

std::atomic<int> g_dump_seq{0};

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

template <typename Report>
void AppendCheckerSection(const std::string& path, const Report& report) {
  if (!report.enabled) {
    return;
  }
  std::ofstream out(path, std::ios::app);
  const std::string name = report.checker;
  // Ends a diagnostic or event line with the checker's own fields.
  auto end_line = [&out](const auto& item) {
    item.ForEachField([&out](const char* key, const auto& value) {
      out << ' ' << key << '=' << value;
    });
    out << '\n';
  };
  out << "checker " << name << " 1\n";
  for (const auto& [key, value] : report.stats) {
    out << "checkerstat " << name << ' ' << key << ' ' << value << '\n';
  }
  out << "checkerstat " << name << " diagnostics_truncated " << report.diagnostics_truncated
      << '\n';
  for (size_t c = 0; c < Report::kNumClasses; c++) {
    out << "checkerclass " << name << ' '
        << pmsim::CheckClassName(static_cast<typename Report::Class>(c)) << ' '
        << report.counts[c] << ' ' << report.suppressed[c] << ' ' << report.info[c] << '\n';
  }
  for (const auto& d : report.diagnostics) {
    out << (d.info ? "checkerinfo " : "checkerdiag ") << name << ' '
        << pmsim::CheckClassName(d.cls) << ' ' << d.line << ' ' << trace::ComponentName(d.comp)
        << ' ' << d.worker << ' ' << d.detail;
    end_line(d);
    for (const auto& ev : d.recent) {
      out << "checkerev " << name << ' ' << pmsim::CheckEventName(ev.kind) << ' '
          << trace::ComponentName(ev.comp) << ' ' << ev.worker << ' ' << ev.detail;
      end_line(ev);
    }
  }
  out.flush();
  if (!out) {
    DumpWriteFailed(path);
  }
}

template void AppendCheckerSection(const std::string&, const pmsim::PmCheckReport&);
template void AppendCheckerSection(const std::string&, const pmsim::LockCheckReport&);

}  // namespace cclbt::bench
