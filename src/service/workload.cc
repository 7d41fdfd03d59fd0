#include "src/service/workload.h"

#include <cmath>

namespace cclbt::service {

double OpenLoopGenerator::MeanGapNs(double now_ns) const {
  double base = 1000.0 / config_.offered_mops;  // ns between arrivals at the mean rate
  if (config_.process == ArrivalProcess::kPoisson || config_.burst_period_ns == 0) {
    return base;
  }
  // On/off modulation. The on-window multiplies the rate by burst_factor;
  // the off-window rate is solved so the period-average rate stays at
  // offered_mops (clamped: a >1 duty*factor product would need a negative
  // off-rate, so the floor makes such configs burst-heavy rather than UB).
  double duty = static_cast<double>(config_.burst_duty_pct) / 100.0;
  double period = static_cast<double>(config_.burst_period_ns);
  double pos = std::fmod(now_ns, period);
  double rate_mult;
  if (pos < duty * period) {
    rate_mult = config_.burst_factor;
  } else {
    rate_mult = (1.0 - config_.burst_factor * duty) / (1.0 - duty);
    if (rate_mult < 0.05) {
      rate_mult = 0.05;
    }
  }
  return base / rate_mult;
}

bool OpenLoopGenerator::Next(Request* out) {
  if (emitted_ >= config_.ops) {
    return false;
  }
  OpType op = picker_.Next();
  if (config_.warm_keys == 0 && op != OpType::kInsert) {
    op = OpType::kInsert;  // nothing warm to read/update/scan yet
  }
  out->op = op;
  out->seq = emitted_;
  out->value = 0;
  switch (op) {
    case OpType::kInsert:
      out->key = ServiceWarmKey(config_.warm_keys + inserted_);
      out->value = ServiceValue(config_.warm_keys + emitted_);
      inserted_++;
      break;
    case OpType::kUpdate:
      out->value = ServiceValue(config_.warm_keys + emitted_);
      [[fallthrough]];
    case OpType::kRead:
    case OpType::kScan:
    case OpType::kDelete:
      out->key = config_.dist == KeyDistribution::kZipfian
                     ? ServiceWarmKey(zipf_->NextRank())
                     : ServiceWarmKey(rng_.NextBounded(config_.warm_keys));
      break;
  }
  if (config_.offered_mops > 0) {
    // Exponential inter-arrival: -ln(1-U) * mean. NextDouble() < 1 strictly,
    // so the log argument never hits zero.
    double gap = -std::log(1.0 - rng_.NextDouble()) * MeanGapNs(clock_ns_);
    clock_ns_ += gap;
    out->arrival_ns = static_cast<uint64_t>(clock_ns_);
  } else {
    out->arrival_ns = 0;  // closed loop: the service back-fills arrival = start
  }
  emitted_++;
  return true;
}

}  // namespace cclbt::service
