// Deterministic crash injection on the fence path (DESIGN.md §9).
//
// A CrashInjector installed via PmDevice::SetCrashInjector counts every fence
// the device executes and, when armed with a target, aborts the workload at
// the scheduled fence by throwing CrashPointReached *before* the fence
// commits its pending lines — the machine loses power at the sfence
// instruction, so the flushed-but-unfenced lines are exactly the state a real
// ADR failure leaves in flight. The harness catches the exception, discards
// the index's DRAM state, and settles the media image with PmDevice::Crash()
// (clean) or CrashTorn(seed) (each pending line independently persists).
//
// Disarmed cost: the device tests one pointer per fence (the same
// runtime-gate pattern as the trace gate, DESIGN.md §8); with no injector
// installed the fence path is unchanged, so virtual-time metrics stay
// bit-identical.
#ifndef SRC_PMSIM_CRASH_INJECTOR_H_
#define SRC_PMSIM_CRASH_INJECTOR_H_

#include <atomic>
#include <cstdint>

namespace cclbt::pmsim {

// Thrown out of PmDevice::Fence when an armed injector reaches its target.
// Propagates through index code; the aborted index object must be discarded
// (its DRAM state is mid-operation), never operated on again.
struct CrashPointReached {
  uint64_t fence_index = 0;  // 1-based fence count since Arm()
};

class CrashInjector {
 public:
  enum class Mode : uint8_t { kClean, kTorn };

  // Restarts the fence count at zero and schedules a crash at the
  // `fence_target`-th observed fence (1-based). A target of 0 arms in
  // count-only mode: fences are counted but no crash fires — used to probe
  // how many fences a workload executes before building a schedule.
  void Arm(uint64_t fence_target, Mode mode = Mode::kClean, uint64_t torn_seed = 0) {
    fences_observed_.store(0, std::memory_order_relaxed);
    fired_.store(false, std::memory_order_relaxed);
    mode_ = mode;
    torn_seed_ = torn_seed;
    target_.store(fence_target, std::memory_order_relaxed);
  }

  uint64_t fences_observed() const { return fences_observed_.load(std::memory_order_relaxed); }
  bool fired() const { return fired_.load(std::memory_order_relaxed); }
  Mode mode() const { return mode_; }
  uint64_t torn_seed() const { return torn_seed_; }

  // Called by PmDevice::Fence before the fence commits. The exchange on
  // fired_ guarantees exactly one throw even if several workers fence
  // concurrently around the target.
  void OnFence() {
    uint64_t count = fences_observed_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t target = target_.load(std::memory_order_relaxed);
    if (target != 0 && count >= target && !fired_.exchange(true, std::memory_order_relaxed)) {
      throw CrashPointReached{count};
    }
  }

 private:
  std::atomic<uint64_t> fences_observed_{0};
  std::atomic<uint64_t> target_{0};
  std::atomic<bool> fired_{false};
  Mode mode_ = Mode::kClean;
  uint64_t torn_seed_ = 0;
};

}  // namespace cclbt::pmsim

#endif  // SRC_PMSIM_CRASH_INJECTOR_H_
