// The repo's one log-bucketed latency histogram (values are ns, but the
// class is unit-agnostic). Used by the measured phase for per-op-kind
// latency in virtual and wall time, by the bench driver for RunResult
// percentiles, and by bench_fig12's latency-distribution rows.
//
// Bucketing: 32 sub-buckets per power of two (kSubBucketBits = 5), values
// < 32 get exact unit buckets. Relative quantization error is bounded by
// one sub-bucket width (~3.2%); recording is O(1).
//
// Boundedness: every bucket, including the last one, has a well-defined
// upper bound — BucketUpperBound() saturates at kMaxTrackable instead of
// letting the top bucket's bound wrap around uint64 (the shift for bucket
// 2047 is 2^68-1, which overflowed in the previous src/common
// implementation and made the max bucket effectively open-ended).
// Percentile() additionally clamps to the observed [Min, Max], so a rank
// landing in the top bucket reports the recorded maximum, never a wrapped
// or sentinel value.
#ifndef SRC_METRICS_HISTOGRAM_H_
#define SRC_METRICS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace cclbt::metrics {

class Histogram {
 public:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets per power of two.
  static constexpr int kNumBuckets = 64 << kSubBucketBits;

  Histogram();

  void Record(uint64_t value);

  // Merge another histogram (e.g. every op kind into one whole-op view).
  void Merge(const Histogram& other);

  // Windowed view: this histogram minus an earlier snapshot of the same
  // recording stream (bucket-wise subtraction; `earlier` must be a prefix —
  // every bucket count <= this one's). The delta's Min()/Max() are the
  // quantized bucket bounds of its lowest/highest non-empty bucket, since
  // exact extremes of a window are not recoverable from cumulative state.
  Histogram Delta(const Histogram& earlier) const;

  // Value at percentile p in [0, 100]: the upper bound of the bucket holding
  // the requested rank, clamped into [Min(), Max()]. 0 for an empty
  // histogram.
  uint64_t Percentile(double p) const;

  uint64_t Min() const { return count_ == 0 ? 0 : min_; }
  uint64_t Max() const { return count_ == 0 ? 0 : max_; }
  uint64_t Count() const { return count_; }
  uint64_t Sum() const { return sum_; }
  double Mean() const;

  void Reset();

  // Largest value with a non-saturated bucket bound; larger values land in
  // the top bucket and report through the [Min, Max] clamp.
  static uint64_t MaxTrackable();

  static int BucketFor(uint64_t value);
  // Inclusive upper bound of `bucket`; saturates at MaxTrackable() for the
  // top bucket instead of overflowing.
  static uint64_t BucketUpperBound(int bucket);

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ULL;
  uint64_t max_ = 0;
};

}  // namespace cclbt::metrics

#endif  // SRC_METRICS_HISTOGRAM_H_
