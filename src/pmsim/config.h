// Configuration for the simulated persistent-memory device.
//
// The simulator models the two hardware layers the paper's analysis rests on
// (§2.1, Figure 1):
//   CPU cache --clwb/sfence--> WPQ --> XPBuffer (16 KB, on-DIMM, ADR-safe)
//                                         --256 B XPLine--> 3D-XPoint media
//
// Cost constants are calibrated to public Optane DCPMM 200 characterization
// numbers (Yang et al. FAST'20; Wang et al. MICRO'20): ~300 ns random read
// latency, ~1-2 GB/s effective random 256 B write bandwidth per DIMM, and a
// roughly 2x penalty for cross-socket access.
#ifndef SRC_PMSIM_CONFIG_H_
#define SRC_PMSIM_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace cclbt::pmsim {

inline constexpr size_t kCachelineBytes = 64;
inline constexpr size_t kXplineBytes = 256;
inline constexpr size_t kLinesPerXpline = kXplineBytes / kCachelineBytes;  // 4
// Address interleaving granularity across the DIMMs of one socket.
inline constexpr size_t kInterleaveBytes = 4096;

// Persistence-domain backend (DESIGN.md §14). The backend owns everything
// media-specific: combining-buffer granularity, the persistence boundary
// (what a crash can lose), and the per-backend pmcheck rule table.
//   kAdrOptane  ADR Optane DCPMM: explicit clwb+sfence, power-protected
//               XPBuffer, 256 B media unit. The default and the only backend
//               the paper's figures use.
//   kEadr       extended ADR: the CPU cache is inside the persistence
//               domain, so flushes are free and there is no unfenced-pending
//               crash window; dirty lines reach the XPBuffer via a modeled
//               random cache-eviction stream (paper §5.5).
//   kCxlMem     CXL memory-semantic device: page-granular write combining
//               (xpline_bytes up to 4 KB); optionally a volatile internal
//               buffer, giving a page-sized crash window.
//   kAuto       resolve at device construction: the CCL_BACKEND
//               environment selector (adr | eadr | cxl), else kAdrOptane.
enum class MediaBackend : uint8_t {
  kAuto = 0,
  kAdrOptane = 1,
  kEadr = 2,
  kCxlMem = 3,
};

struct CostParams {
  // Latency of a PM read that misses the XPBuffer (media access),
  // uncontended.
  uint64_t pm_read_ns = 320;
  // Latency of a PM read served from the XPBuffer.
  uint64_t pm_read_hit_ns = 120;
  // Cross-socket (remote NUMA) latency/service multiplier, in percent.
  // 220 == 2.2x.
  uint32_t remote_penalty_pct = 220;
  // Media service time for writing one 256 B XPLine (per-DIMM server).
  uint64_t xpline_write_service_ns = 300;
  // Extra service time when the eviction is a read-modify-write because the
  // XPLine was only partially overwritten while buffered.
  uint64_t xpline_rmw_extra_ns = 150;
  // Media service occupancy of one 256 B read miss (reads queue on the same
  // per-DIMM server as writes, so read-heavy workloads saturate too).
  uint64_t xpline_read_service_ns = 140;
  // How far (in ns of queued media work) a DIMM may lag behind a writer
  // before the WPQ back-pressures the flushing thread.
  uint64_t wpq_slack_ns = 1500;
  // CPU-side cost of one clwb (issue + WPQ transfer).
  uint64_t cacheline_flush_ns = 25;
  // CPU-side cost of one sfence.
  uint64_t fence_ns = 30;
  // Cost of a DRAM structure access charged by index code where it matters
  // (e.g. scanning buffered entries).
  uint64_t dram_access_ns = 4;
};

struct DeviceConfig {
  size_t pool_bytes = 1ULL << 30;
  int num_sockets = 2;
  int dimms_per_socket = 4;
  // CPU cores per socket of fill-first worker->socket placement
  // (kvindex::Runtime::SocketForWorker). 0 (the default) means
  // "unspecified": the caller's default then applies (the bench driver's is
  // the paper's 48), and with none, workers are placed round-robin across
  // sockets instead of piling onto socket 0 behind a fill-first threshold no
  // small run ever crosses.
  int cores_per_socket = 0;
  // Per-DIMM write-combining buffer (XPBuffer): 16 KB of 256 B XPLines.
  size_t xpbuffer_bytes = 16 * 1024;
  // Media access unit ("XPLine"): 256 B on Optane DCPMM; set to 4096 to model
  // CXL-flash devices with 4 KB internal pages (paper §6). Power of two.
  size_t xpline_bytes = kXplineBytes;
  // Persistence-domain backend; kAuto resolves at device construction (see
  // MediaBackend above). After construction PmDevice::config().backend is
  // always a concrete backend.
  MediaBackend backend = MediaBackend::kAuto;
  // kCxlMem only: model the device-internal page buffer as volatile — fence
  // commits stage line contents in the buffer and they only reach the
  // persistence boundary when the containing media unit is evicted (or at a
  // clean power-down), so a crash loses up to the buffered pages. Off by
  // default: a power-protected buffer behaves exactly like the ADR commit
  // path at page granularity.
  bool cxl_volatile_buffer = false;
  // Number of cachelines the modeled CPU cache holds before random eviction
  // (eADR mode only).
  size_t eadr_cache_lines = 32768;  // 2 MB
  // Maintain the shadow persistent image for Crash() support. Costs 1x pool
  // memory and a 64 B copy per flush; benches that never crash can disable.
  bool crash_tracking = true;
  // Enable pmcheck, the persistency-ordering checker (DESIGN.md §11). The
  // CCL_PMCHECK environment variable overrides this at device construction
  // ("1" forces on, "0" forces off). Requires the shadow image, so
  // crash_tracking is forced on. Diagnostic severity is backend-dependent
  // (MediaModel::check_action, DESIGN.md §14): e.g. a redundant flush is a
  // real violation on ADR but informational on eADR, where flushes are free.
  // Diagnostics never touch virtual time.
  bool pmcheck = false;
  // Enable lockcheck, the locking-discipline checker (DESIGN.md §16): Eraser
  // lockset analysis over PM cachelines, lock-order cycle detection, and the
  // fence-publish cross-check against pmcheck. The CCL_LOCKCHECK environment
  // variable overrides this at device construction ("1" forces on, "0"
  // forces off). Independent of pmcheck (the cross-check simply degrades to
  // informational without it). Diagnostics never touch virtual time.
  bool lockcheck = false;
  CostParams cost{};

  int total_dimms() const { return num_sockets * dimms_per_socket; }
  size_t xpbuffer_entries() const { return xpbuffer_bytes / xpline_bytes; }
  size_t socket_region_bytes() const { return pool_bytes / static_cast<size_t>(num_sockets); }
};

}  // namespace cclbt::pmsim

#endif  // SRC_PMSIM_CONFIG_H_
