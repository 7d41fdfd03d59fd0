// Forwarding KvIndex that measures the bench driver's calls from outside the
// index. It counts calls to find the boundary between the driver's warm-up
// and its measured phase, reads the calling worker's virtual clock around
// every measured call (per-kind virtual latency), and, in a traced run, also
// the host clock (per-kind host latency and the host time spent inside the
// index). It logs every upsert and every measured lookup so the benchmark can
// check each lookup result against the writes before it.
//
// The probe only reads clocks and counts; it never touches pmsim state, so a
// run through it is bit-identical on every virtual metric to a run on the
// bare index (checked by `perfbench selftest`).
#ifndef PERFBENCH_PROBE_INDEX_H_
#define PERFBENCH_PROBE_INDEX_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/kvindex/kv_index.h"
#include "src/metrics/clock.h"
#include "src/metrics/histogram.h"
#include "src/pmsim/thread_context.h"

namespace perfbench {

enum CallKind { kUpsertCall, kLookupCall, kScanCall, kNumCallKinds };

inline const char* CallKindName(int kind) {
  static const char* const kNames[kNumCallKinds] = {"upsert", "lookup", "scan"};
  return kNames[kind];
}

// One upsert (warm-up or measured) or measured lookup, in execution order.
struct LoggedOp {
  uint64_t key = 0;
  uint64_t value = 0;  // value written, or value read
  bool lookup = false;
  bool found = false;  // lookups only
};

class ProbeIndex final : public cclbt::kvindex::KvIndex {
 public:
  struct Options {
    // Calls the driver makes before its first measured call (its warm-up
    // upserts: RunConfig::warm_keys).
    uint64_t warm_calls = 0;
    // Traced run: read the host clock around every measured call.
    bool wall_per_call = false;
    // Runs once, at the start of the first measured call, before it is
    // timed (snapshot index/device counters for measured-phase deltas).
    std::function<void()> on_measure_start;
  };

  ProbeIndex(cclbt::kvindex::KvIndex& inner, Options options)
      : inner_(inner), options_(std::move(options)) {}

  void Upsert(uint64_t key, uint64_t value) override {
    Mark mark = Begin();
    inner_.Upsert(key, value);
    End(kUpsertCall, mark);
    log_.push_back({key, value, false, false});
  }

  bool Lookup(uint64_t key, uint64_t* value_out) override {
    Mark mark = Begin();
    bool found = inner_.Lookup(key, value_out);
    End(kLookupCall, mark);
    if (mark.measured) {
      misses_ += found ? 0 : 1;
      log_.push_back({key, found ? *value_out : 0, true, found});
    }
    return found;
  }

  bool Remove(uint64_t key) override {
    Mark mark = Begin();
    bool removed = inner_.Remove(key);
    End(kUpsertCall, mark);
    return removed;
  }

  size_t Scan(uint64_t start_key, size_t count, cclbt::kvindex::KeyValue* out) override {
    Mark mark = Begin();
    size_t n = inner_.Scan(start_key, count, out);
    End(kScanCall, mark);
    if (mark.measured) {
      // Every scan here starts at a present key: it must return that key
      // first and then strictly ascending keys.
      bool ok = n >= 1 && out[0].key == start_key;
      for (size_t i = 1; ok && i < n; i++) {
        ok = out[i - 1].key < out[i].key;
      }
      bad_scans_ += ok ? 0 : 1;
    }
    return n;
  }

  // The rest of what bench::RunWorkload calls. The benchmark recovers the
  // bare index, never the probe, so the lifecycle hooks are not forwarded.
  const char* name() const override { return inner_.name(); }
  cclbt::kvindex::MemoryFootprint Footprint() const override { return inner_.Footprint(); }
  bool GcTick() override { return inner_.GcTick(); }
  void SampleGauges(std::vector<std::pair<std::string, uint64_t>>* out) const override {
    inner_.SampleGauges(out);
  }

  // --- readings ------------------------------------------------------------
  uint64_t calls() const { return calls_; }
  uint64_t measured_calls(int kind) const { return virt_[kind].Count(); }
  uint64_t measured_calls() const {
    return measured_calls(kUpsertCall) + measured_calls(kLookupCall) + measured_calls(kScanCall);
  }
  const cclbt::metrics::Histogram& virtual_ns(int kind) const { return virt_[kind]; }
  const cclbt::metrics::Histogram& host_ns(int kind) const { return host_[kind]; }
  uint64_t host_ns_in_index() const { return host_in_index_; }
  uint64_t lookup_misses() const { return misses_; }
  uint64_t bad_scans() const { return bad_scans_; }
  const std::vector<LoggedOp>& log() const { return log_; }
  void reserve_log(size_t n) { log_.reserve(n); }

  // Host clock at the first warm call, right after the last warm call, and
  // at the start of the first measured call (0 until reached).
  uint64_t warm_start_ns() const { return warm_start_ns_; }
  uint64_t warm_end_ns() const { return warm_end_ns_; }
  uint64_t measure_start_ns() const { return measure_start_ns_; }
  // Worker clocks straddling the boundary: the clock after the last warm
  // call and at the start of the first measured call.
  uint64_t last_warm_vclock_ns() const { return last_warm_vclock_ns_; }
  uint64_t first_measured_vclock_ns() const { return first_measured_vclock_ns_; }

 private:
  struct Mark {
    bool measured = false;
    uint64_t vns = 0;
    uint64_t wall_ns = 0;
  };

  static uint64_t Clock() { return cclbt::pmsim::ThreadContext::Current()->now_ns(); }

  Mark Begin() {
    uint64_t n = calls_++;
    if (n == 0) {
      warm_start_ns_ = cclbt::metrics::WallNowNs();
    }
    Mark mark;
    mark.measured = n >= options_.warm_calls;
    if (!mark.measured) {
      return mark;
    }
    if (n == options_.warm_calls) {
      if (options_.on_measure_start) {
        options_.on_measure_start();
      }
      first_measured_vclock_ns_ = Clock();
      measure_start_ns_ = cclbt::metrics::WallNowNs();
    }
    mark.vns = Clock();
    if (options_.wall_per_call) {
      mark.wall_ns = cclbt::metrics::WallNowNs();
    }
    return mark;
  }

  void End(int kind, const Mark& mark) {
    if (!mark.measured) {
      if (calls_ == options_.warm_calls) {
        warm_end_ns_ = cclbt::metrics::WallNowNs();
        last_warm_vclock_ns_ = Clock();
      }
      return;
    }
    if (options_.wall_per_call) {
      uint64_t wall = cclbt::metrics::WallNowNs() - mark.wall_ns;
      host_[kind].Record(wall);
      host_in_index_ += wall;
    }
    virt_[kind].Record(Clock() - mark.vns);
  }

  cclbt::kvindex::KvIndex& inner_;
  Options options_;
  uint64_t calls_ = 0;
  std::array<cclbt::metrics::Histogram, kNumCallKinds> virt_;
  std::array<cclbt::metrics::Histogram, kNumCallKinds> host_;
  uint64_t host_in_index_ = 0;
  uint64_t misses_ = 0;
  uint64_t bad_scans_ = 0;
  std::vector<LoggedOp> log_;
  uint64_t warm_start_ns_ = 0;
  uint64_t warm_end_ns_ = 0;
  uint64_t measure_start_ns_ = 0;
  uint64_t last_warm_vclock_ns_ = 0;
  uint64_t first_measured_vclock_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_INDEX_H_
