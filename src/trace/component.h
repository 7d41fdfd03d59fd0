// Component taxonomy for write-amplification attribution (pmtrace).
//
// A Component names the *code* that caused PM traffic; it is the simulator's
// only media-write attribution. Core/baseline code pushes a
// TraceScope(Component) around its PM-writing sections. PmDevice::Fence
// reads the innermost active component once and stamps it on every line it
// commits, so a scope must enclose the fence, not just the flushes. A media
// write is charged to the component stamped on the evicted XPLine, so
// StatsSnapshot can explain which subsystem produced which share of
// media_write_bytes (the split ipmctl's device-wide counters cannot make,
// paper §2.1; Figure 13(b) reads leaf vs wal + gc from it).
#ifndef SRC_TRACE_COMPONENT_H_
#define SRC_TRACE_COMPONENT_H_

#include <cstdint>

namespace cclbt::trace {

enum class Component : uint8_t {
  kOther = 0,       // no scope active (tests, raw device benches)
  kWal = 1,         // per-thread log appends + chunk activation/release
  kLeaf = 2,        // PM leaf writes incl. splits/merges (SMOs)
  kInner = 3,       // inner-index routing (DRAM; PM reads for key blobs)
  kBufferNode = 4,  // buffer-node merge/cache maintenance
  kGc = 5,          // background/foreground log GC passes
  kAllocMeta = 6,   // allocator metadata (slab registries, pool root)
  kValueStore = 7,  // out-of-band value blobs
  kCount = 8,
};

inline constexpr int kNumComponents = static_cast<int>(Component::kCount);

inline const char* ComponentName(Component c) {
  switch (c) {
    case Component::kOther: return "other";
    case Component::kWal: return "wal";
    case Component::kLeaf: return "leaf";
    case Component::kInner: return "inner";
    case Component::kBufferNode: return "buffernode";
    case Component::kGc: return "gc";
    case Component::kAllocMeta: return "allocmeta";
    case Component::kValueStore: return "valuestore";
    case Component::kCount: break;
  }
  return "?";
}

}  // namespace cclbt::trace

#endif  // SRC_TRACE_COMPONENT_H_
