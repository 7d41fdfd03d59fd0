// YCSB-compatible Zipfian generator (Gray et al., "Quickly Generating
// Billion-Record Synthetic Databases"). Produces ranks in [0, n) with
// P(rank=k) proportional to 1/(k+1)^theta; callers hash the rank (Mix64) so
// hot keys are spread over the key space, as the YCSB ScrambledZipfian does.
#ifndef SRC_COMMON_ZIPFIAN_H_
#define SRC_COMMON_ZIPFIAN_H_

#include <cstdint>

#include "src/common/rng.h"

namespace cclbt {

class ZipfianGenerator {
 public:
  // Computing zeta(n, theta) exactly is O(n); above this n the sum is capped
  // and the tail extrapolated with the integral approximation (the standard
  // YCSB trick: they maintain zetan incrementally, we precompute).
  static constexpr uint64_t kExactZetaLimit = 1 << 22;

  // `theta` is the skew coefficient (the paper uses 0.9 and sweeps 0.5-0.99).
  // O(min(n, kExactZetaLimit)) pow() calls.
  ZipfianGenerator(uint64_t n, double theta, uint64_t seed = 1);
  // Same distribution as `shape`, own stream from `seed`: draws exactly the
  // ranks ZipfianGenerator(shape.n(), shape.theta(), seed) would, without
  // recomputing zeta. Workers of one run share a shape this way.
  ZipfianGenerator(const ZipfianGenerator& shape, uint64_t seed);

  // Next rank in [0, n), Zipf-distributed (rank 0 is the hottest).
  uint64_t NextRank();

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double Zeta(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
  Rng rng_;
};

}  // namespace cclbt

#endif  // SRC_COMMON_ZIPFIAN_H_
