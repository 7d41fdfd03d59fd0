// ORDO-style timestamping (Kashyap et al., EuroSys'18), as used by the paper
// (§3.3) to order log entries across sockets whose hardware clocks have a
// constant skew. A timestamp read on socket A is only comparable with one
// from socket B after widening by the measured maximum inter-socket offset
// (the "ORDO boundary").
//
// On real hardware the clock is rdtsc; here we read a monotonic clock and add
// a configurable per-socket skew so tests can exercise the comparison logic
// the way a multi-socket machine would.
#ifndef SRC_COMMON_ORDO_H_
#define SRC_COMMON_ORDO_H_

#include <atomic>
#include <cstdint>

namespace cclbt {

class OrdoClock {
 public:
  // `boundary_ns` is the maximum cross-socket clock offset. 0 means perfectly
  // synchronized clocks (single socket).
  explicit OrdoClock(uint64_t boundary_ns = 0) : boundary_ns_(boundary_ns) {}

  // Strictly monotonic per process; sockets may observe skewed values.
  uint64_t Now(int socket = 0) const {
    uint64_t t = counter_.fetch_add(1, std::memory_order_relaxed);
    // Model a constant per-socket offset below the ORDO boundary.
    return t + static_cast<uint64_t>(socket) * (boundary_ns_ / 4);
  }

  // ORDO's cmp: returns +1 if a is definitely after b, -1 if definitely
  // before, 0 if within the uncertainty window (caller must treat as
  // concurrent).
  int Compare(uint64_t a, uint64_t b) const {
    if (a > b + boundary_ns_) {
      return 1;
    }
    if (b > a + boundary_ns_) {
      return -1;
    }
    return 0;
  }

  // A timestamp guaranteed to compare as "after" every timestamp issued so
  // far (new_time in ORDO): read the clock and push past the boundary plus
  // the worst-case per-socket skew, so Compare() leaves the uncertainty
  // window.
  uint64_t NowAfterBoundary(int socket = 0) const { return Now(socket) + 2 * boundary_ns_; }

  uint64_t boundary_ns() const { return boundary_ns_; }

  // A power cycle restarts the counter, as it restarts the TSC: timestamps
  // read after a restart are not ordered after those read before it.
  void Restart() { counter_.store(1, std::memory_order_relaxed); }

 private:
  uint64_t boundary_ns_;
  mutable std::atomic<uint64_t> counter_{1};
};

}  // namespace cclbt

#endif  // SRC_COMMON_ORDO_H_
