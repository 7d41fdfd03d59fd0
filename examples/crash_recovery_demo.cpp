// Crash-recovery demo: runs a write-heavy workload, power-fails the
// simulated PM device at an arbitrary point (torn cachelines included),
// recovers, and audits that every acknowledged write survived — the
// write-conservative-logging guarantee of §3.3.
//
// Usage: crash_recovery_demo [keys] [seed]
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/core/ccl_btree.h"

int main(int argc, char** argv) {
  using namespace cclbt;

  uint64_t keys = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200'000;
  uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2024;

  kvindex::RuntimeOptions runtime_options;
  runtime_options.device.pool_bytes = 2ULL << 30;
  kvindex::Runtime runtime(runtime_options);
  core::TreeOptions options;
  options.gc_quantum_ops = 0;

  // Phase 1: random upserts and deletes; remember what was acknowledged.
  std::map<uint64_t, uint64_t> acknowledged;
  {
    core::CclBTree tree(runtime, options);
    pmsim::ThreadContext ctx(runtime.device(), 0, 0);
    Rng rng(seed);
    for (uint64_t i = 0; i < keys; i++) {
      uint64_t key = Mix64(rng.NextBounded(keys / 2) + 1) | 1;
      if (rng.NextBounded(10) < 8) {
        uint64_t value = rng.Next() | 1;
        tree.Upsert(key, value);
        acknowledged[key] = value;
      } else {
        tree.Remove(key);
        acknowledged.erase(key);
      }
      if (i == keys / 2) {
        tree.RunGcOnce();  // exercise log reclamation mid-run
      }
    }
    std::printf("pre-crash : %zu live keys, %llu buffer flushes, %llu splits, log %.1f KB\n",
                acknowledged.size(), (unsigned long long)tree.buffer_flushes(),
                (unsigned long long)tree.splits(),
                static_cast<double>(tree.log_live_bytes()) / 1024.0);
  }

  // Phase 2: power failure with torn unfenced lines.
  runtime.device().CrashTorn(seed ^ 0xdead);
  std::printf("power failure injected (torn unfenced cachelines)\n");

  // Phase 3: reattach to the surviving media, recover and audit.
  std::string reopen_error;
  if (!runtime.Reopen(&reopen_error)) {
    std::printf("reopen failed: %s\n", reopen_error.c_str());
    return 1;
  }
  auto tree = std::make_unique<core::CclBTree>(runtime, options, kvindex::Lifecycle::kAttach);
  if (!tree->Recover(runtime, /*recovery_threads=*/4)) {
    std::printf("recovery failed\n");
    return 1;
  }
  pmsim::ThreadContext ctx(runtime.device(), 0, 0);
  uint64_t lost = 0;
  uint64_t stale = 0;
  for (const auto& [key, value] : acknowledged) {
    uint64_t got = 0;
    if (!tree->Lookup(key, &got)) {
      lost++;
    } else if (got != value) {
      stale++;
    }
  }
  std::printf("post-crash: lost=%llu stale=%llu of %zu acknowledged writes\n",
              (unsigned long long)lost, (unsigned long long)stale, acknowledged.size());
  std::printf("structural invariants: %s\n", tree->CheckInvariants() ? "OK" : "VIOLATED");
  return lost + stale == 0 ? 0 : 1;
}
