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
#include "src/pmsim/lockcheck.h"
#include "src/pmsim/pmcheck.h"
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

// Appends the pmcheck section (pmcheck/pmcheckstat/pmcheckclass/pmcheckdiag/
// pmcheckev keyword lines, consumed by `pmctl check`) to an already-written
// dump. Appended after the end-of-run close scan so the unflushed-at-close
// class is included; older pmctl builds skip the unknown keywords. Returns
// false if the dump cannot be written.
bool AppendPmCheckSection(const std::string& path, const pmsim::PmCheckReport& report);

// Appends the lockcheck section (lockcheck/lockcheckstat/lockcheckclass/
// lockcheckdiag/lockcheckev keyword lines, consumed by `pmctl locks`) to an
// already-written dump. Same versioned-keyword contract as the pmcheck
// section. Returns false if the dump cannot be written.
bool AppendLockCheckSection(const std::string& path, const pmsim::LockCheckReport& report);

}  // namespace cclbt::bench

#endif  // SRC_BENCH_TRACE_DUMP_H_
