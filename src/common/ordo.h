// ORDO-style timestamping (Kashyap et al., EuroSys'18), as used by the paper
// (§3.3) to order log entries and leaf flushes. On real hardware the clock is
// rdtsc, whose per-socket skew ORDO bounds; the model runs every socket on
// one synchronized clock, so timestamps compare directly.
#ifndef SRC_COMMON_ORDO_H_
#define SRC_COMMON_ORDO_H_

#include <atomic>
#include <cstdint>

namespace cclbt {

class OrdoClock {
 public:
  // Strictly monotonic per process.
  uint64_t Now() const { return counter_.fetch_add(1, std::memory_order_relaxed); }

  // A power cycle restarts the counter, as it restarts the TSC: timestamps
  // read after a restart are not ordered after those read before it.
  void Restart() { counter_.store(1, std::memory_order_relaxed); }

 private:
  mutable std::atomic<uint64_t> counter_{1};
};

}  // namespace cclbt

#endif  // SRC_COMMON_ORDO_H_
