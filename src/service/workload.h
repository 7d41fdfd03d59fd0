// Open-loop YCSB-style workload generation in virtual time (DESIGN.md §15).
//
// Closed-loop drivers (src/bench/driver.h) issue the next operation the
// moment the previous one returns, so offered load always equals service
// capacity and queueing delay is invisible. The open-loop generator instead
// emits a deterministic *arrival process*: each request carries a virtual
// arrival timestamp drawn from a seeded RNG (Poisson, or an on/off burst
// modulation of one), independent of how fast the service drains. Offered
// load can therefore exceed capacity, which is exactly the regime where
// XPBuffer-induced media stalls compound into queueing delay and tail
// latency — the measurement the paper's closed-loop evaluation cannot
// produce.
//
// Determinism: the stream is a pure function of OpenLoopConfig (seeded
// xoshiro draws + libm exp/log on identical inputs), so two runs of the same
// binary see bit-identical arrivals.
#ifndef SRC_SERVICE_WORKLOAD_H_
#define SRC_SERVICE_WORKLOAD_H_

#include <cstdint>
#include <optional>

#include "src/common/keyspace.h"
#include "src/common/rng.h"
#include "src/common/ycsb.h"
#include "src/common/zipfian.h"

namespace cclbt::service {

enum class ArrivalProcess : uint8_t {
  kPoisson,  // exponential inter-arrivals at the offered rate
  kBurst,    // Poisson modulated by a deterministic on/off duty cycle
};

// One client request as it enters the service front-end.
struct Request {
  OpType op = OpType::kInsert;
  uint64_t key = 0;
  uint64_t value = 0;       // value word for writes (inline 8 B)
  uint64_t arrival_ns = 0;  // virtual-time arrival
  uint64_t seq = 0;         // global arrival order (0-based)
};

struct OpenLoopConfig {
  // Requests in the measured stream.
  uint64_t ops = 100'000;
  // Mean offered load in Mop/s of virtual time (1 Mop/s == one arrival per
  // 1000 ns on average). <= 0 means closed loop: the service executes
  // back-to-back at capacity (used by the saturation probe), and arrival
  // timestamps are not meaningful.
  double offered_mops = 1.0;
  ArrivalProcess process = ArrivalProcess::kPoisson;
  // kBurst: within each burst_period_ns window the first burst_duty_pct% of
  // the period arrives at burst_factor x the mean rate; the remainder of the
  // period runs at a compensating trickle so the long-run mean stays at
  // offered_mops. Models flash-crowd traffic against the leaf-buffer batch
  // absorber.
  uint64_t burst_period_ns = 1'000'000;
  double burst_factor = 4.0;
  int burst_duty_pct = 25;
  // Op mix and key population (same conventions as the closed-loop driver:
  // reads/updates/scans draw from the warm key space, inserts extend it).
  const YcsbMix* mix = &kYcsbInsertIntensive;
  KeyDistribution dist = KeyDistribution::kUniform;
  double zipf_theta = 0.9;
  uint64_t warm_keys = 100'000;
  uint64_t seed = 42;
};

// Key for warm-phase position i (dense scrambled space, |1 like the driver's
// WarmKey so inline values and keys never collide with tombstone encodings).
inline uint64_t ServiceWarmKey(uint64_t i) { return Mix64(i) | 1; }

// Value word for the i-th write of the run (warm phase uses i in
// [0, warm_keys), the measured stream warm_keys + seq). Unique per write so
// rewriting a key always changes its bytes — a repeated value would persist
// a line whose content equals the durable image, which pmcheck rightly
// flags as a redundant flush.
inline uint64_t ServiceValue(uint64_t i) { return ((i + 1) << 1) | 1; }

class OpenLoopGenerator {
 public:
  explicit OpenLoopGenerator(const OpenLoopConfig& config)
      : config_(config),
        rng_(config.seed * 0x9E3779B9ULL + 1),
        picker_(config.mix != nullptr ? *config.mix : kYcsbInsertOnly, config.seed + 13) {
    if (config.dist == KeyDistribution::kZipfian) {
      zipf_.emplace(config.warm_keys == 0 ? 1 : config.warm_keys, config.zipf_theta,
                    config.seed * 31 + 7);
    }
  }

  // Fills `out` with the next request; false once `ops` have been emitted.
  bool Next(Request* out);

 private:
  // Mean inter-arrival at virtual time `now_ns` (burst modulation).
  double MeanGapNs(double now_ns) const;

  OpenLoopConfig config_;
  Rng rng_;
  std::optional<ZipfianGenerator> zipf_;  // Zipfian runs only
  YcsbOpPicker picker_;
  uint64_t emitted_ = 0;
  uint64_t inserted_ = 0;  // fresh keys appended beyond the warm space
  double clock_ns_ = 0;
};

}  // namespace cclbt::service

#endif  // SRC_SERVICE_WORKLOAD_H_
