#include "src/common/zipfian.h"

#include <cmath>

namespace cclbt {

double ZipfianGenerator::Zeta(uint64_t n, double theta) {
  uint64_t exact = n < kExactZetaLimit ? n : kExactZetaLimit;
  double sum = 0.0;
  for (uint64_t i = 0; i < exact; i++) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
  }
  if (n > exact) {
    // Integral tail: sum_{i=exact+1..n} i^-theta ~ (n^(1-theta) - exact^(1-theta)) / (1-theta).
    double one_minus = 1.0 - theta;
    sum += (std::pow(static_cast<double>(n), one_minus) -
            std::pow(static_cast<double>(exact), one_minus)) /
           one_minus;
  }
  return sum;
}

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta, uint64_t seed)
    : n_(n),
      theta_(theta),
      alpha_(1.0 / (1.0 - theta)),
      zetan_(Zeta(n, theta)),
      eta_(0.0),
      zeta2theta_(Zeta(2, theta)),
      rng_(seed) {
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2theta_ / zetan_);
}

ZipfianGenerator::ZipfianGenerator(const ZipfianGenerator& shape, uint64_t seed)
    : ZipfianGenerator(shape) {
  rng_ = Rng(seed);
}

uint64_t ZipfianGenerator::NextRank() {
  double u = rng_.NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  auto rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                    std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

}  // namespace cclbt
