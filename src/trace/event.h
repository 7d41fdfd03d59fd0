// Trace event record for pmtrace. 24 bytes, fixed layout, written into
// per-ThreadContext ring buffers (see trace.h) and exported to the run's
// .pmmetrics dump (one `ring` record per worker, under CCL_TRACE=1) and to
// Chrome trace-event JSON (exporters.h).
#ifndef SRC_TRACE_EVENT_H_
#define SRC_TRACE_EVENT_H_

#include <cstdint>

#include "src/trace/component.h"

namespace cclbt::trace {

enum class EventType : uint8_t {
  // pmsim-level events.
  kFlush = 0,       // clwb issued              arg = line pool offset
  kFence = 1,       // sfence                   arg = pending line count
  kXpbufHit = 2,    // write merged into a resident XPLine   arg = unit index
  kXpbufEvict = 3,  // media write (eviction)   arg = unit, aux = rmw, dimm set
  kMediaRead = 4,   // media read               arg = unit, dimm set
  kReadHit = 5,     // PM read served from XPBuffer          arg = unit
  kReadMiss = 6,    // PM read from media       arg = unit, dimm set
  // Index-level events.
  kWalAppend = 7,    // arg = epoch
  kLeafSplit = 8,    // arg = separator key of the new right node
  kLeafMerge = 9,    // arg = separator key of the merged-away node
  kBufferFlush = 10, // buffer-node batch flushed to its leaf, arg = batch size
  kGcBegin = 11,     // arg = live log bytes at trigger
  kGcEnd = 12,       // arg = live log bytes after the round
  // Attribution scopes (Chrome "B"/"E" duration events).
  kScopeBegin = 13,  // component = entered scope
  kScopeEnd = 14,    // component = exited scope
  kCount = 15,
};

inline const char* EventName(EventType t) {
  switch (t) {
    case EventType::kFlush: return "flush";
    case EventType::kFence: return "fence";
    case EventType::kXpbufHit: return "xpbuf_hit";
    case EventType::kXpbufEvict: return "xpbuf_evict";
    case EventType::kMediaRead: return "media_read";
    case EventType::kReadHit: return "read_hit";
    case EventType::kReadMiss: return "read_miss";
    case EventType::kWalAppend: return "wal_append";
    case EventType::kLeafSplit: return "leaf_split";
    case EventType::kLeafMerge: return "leaf_merge";
    case EventType::kBufferFlush: return "buffer_flush";
    case EventType::kGcBegin: return "gc_begin";
    case EventType::kGcEnd: return "gc_end";
    case EventType::kScopeBegin: return "scope_begin";
    case EventType::kScopeEnd: return "scope_end";
    case EventType::kCount: break;
  }
  return "?";
}

struct TraceEvent {
  uint64_t t_ns = 0;   // virtual time of the emitting worker
  uint64_t arg = 0;    // event-specific payload (offset, unit, key, count)
  uint32_t aux = 0;    // secondary payload (rmw flag, batch size)
  uint8_t type = 0;    // EventType
  uint8_t comp = 0;    // Component active at emit time
  uint16_t dimm = 0;   // DIMM index for media events (0xffff = n/a)
};
static_assert(sizeof(TraceEvent) == 24);

inline constexpr uint16_t kNoDimm = 0xffff;

}  // namespace cclbt::trace

#endif  // SRC_TRACE_EVENT_H_
