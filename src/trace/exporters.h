// Exporters for pmtrace data: Chrome trace-event JSON (loadable in Perfetto
// / chrome://tracing, virtual-time timeline, one track per worker) and an
// ASCII XPLine write-count heatmap. tools/pmctl renders both from the ring
// and heat records of a .pmmetrics dump.
#ifndef SRC_TRACE_EXPORTERS_H_
#define SRC_TRACE_EXPORTERS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace cclbt::trace {

// Writes the rings as Chrome trace-event JSON. Scope begin/end events become
// "B"/"E" duration slices (nested component attribution per worker track);
// everything else becomes an instant event carrying its payload as args.
// Timestamps are virtual nanoseconds rendered as fractional microseconds.
// `process_name` labels the single emitted pid row.
void ExportChromeTraceJson(std::ostream& out, const std::vector<NamedRing>& rings,
                           const std::string& process_name);

// One bin of the XPLine write-count heatmap (media writes per pool region).
struct HeatBin {
  uint64_t first_unit = 0;  // first XPLine index covered by this bin
  uint64_t units = 0;       // XPLines covered
  uint64_t writes = 0;      // media writes that landed in the bin
  uint64_t hottest_unit = 0;
  uint64_t hottest_writes = 0;
};

// Renders bins as an ASCII intensity map, `columns` bins per row, with a
// scale legend. Empty bins print as '.'.
void RenderHeatmap(std::ostream& out, const std::vector<HeatBin>& bins, int columns);

}  // namespace cclbt::trace

#endif  // SRC_TRACE_EXPORTERS_H_
