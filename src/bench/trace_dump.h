// Writer for .pmtrace dump files — the interchange format between a bench
// run and tools/pmctl. A dump is produced at the end of a measured phase
// when the CCL_TRACE environment variable names a path prefix; it carries
// the phase's stats snapshot (with per-component attribution), the XPLine
// write heatmap, and every worker's retained trace events. Plain "keyword
// fields..." text lines: greppable, versioned, no dependencies (see DESIGN.md
// "Observability" for the schema). The time series of a run lives in its
// .pmmetrics dump (src/bench/measured_phase.h), not here.
#ifndef SRC_BENCH_TRACE_DUMP_H_
#define SRC_BENCH_TRACE_DUMP_H_

#include <atomic>
#include <string>

#include "src/kvindex/runtime.h"
#include "src/pmsim/stats.h"

namespace cclbt::bench {

// True when CCL_TRACE is set in the environment: the driver enables event
// tracing for the measured phase and writes one dump per run.
bool TraceDumpRequested();

// Path of a run's next dump, "<prefix>.<seq>.<label><suffix>" with the
// prefix read from `env_var`, or "" when that variable is unset or empty.
// `seq` is the dump type's own process-wide counter, so a bench binary that
// runs many indexes writes distinct files; the label is made file-name safe.
std::string DumpPath(const char* env_var, std::atomic<int>& seq, const std::string& label,
                     const char* suffix);

// Names a dump that could not be written in one stderr line and returns ""
// (a writer's "no dump" result).
std::string DumpWriteFailed(const std::string& path);

// Writes "<CCL_TRACE>.<seq>.<label>.pmtrace". Collects the trace rings
// itself. Returns the path written, or "" when unset or on failure.
std::string WriteTraceDump(kvindex::Runtime& runtime, const std::string& label,
                           const pmsim::StatsSnapshot& stats, double elapsed_virtual_ms);

// Appends one checker's section (DESIGN.md §11, §16) to an already-written
// dump, for `pmctl check`; a disabled report appends nothing. Every line of
// the `checker*` keyword family names the checker first, then the keyword's
// fixed fields, then the checker's own `key=value` fields:
//   checker      <name> <version>
//   checkerstat  <name> <counter> <value>
//   checkerclass <name> <class> <violations> <suppressed> <info>
//   checkerdiag  <name> <class> <line> <component> <worker> <detail> k=v...
//   checkerinfo  (same fields; an informational finding)
//   checkerev    <name> <kind> <component> <worker> <detail> k=v...
// Appended after the end-of-run close scan so the unflushed-at-close class is
// included; older pmctl builds skip the unknown keywords. A section that
// cannot be written is named on stderr (DumpWriteFailed).
template <typename Report>
void AppendCheckerSection(const std::string& path, const Report& report);

}  // namespace cclbt::bench

#endif  // SRC_BENCH_TRACE_DUMP_H_
