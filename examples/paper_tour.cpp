// A guided tour of the paper's three techniques, with the simulator's
// hardware counters printed after each step so you can watch the mechanisms
// work:
//   1. leaf-node centric buffering  (§3.2) — media writes per insert drop
//   2. write-conservative logging   (§3.3) — WAL entries per insert drop
//   3. locality-aware GC            (§3.4) — log reclaimed without random writes
//
// Run: ./build/examples/paper_tour
#include <cstdio>
#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/core/ccl_btree.h"

namespace {

using namespace cclbt;

struct Probe {
  pmsim::PmDevice& device;
  pmsim::StatsSnapshot last;

  explicit Probe(pmsim::PmDevice& dev) : device(dev), last(dev.stats().Snapshot()) {}

  void Report(const char* label, uint64_t ops) {
    device.DrainBuffers();
    auto now = device.stats().Snapshot();
    auto delta = now.Delta(last);
    last = now;
    std::printf("%-34s %8.2f media-B/op  %6.2f XPLine-writes/op\n", label,
                static_cast<double>(delta.media_write_bytes) / static_cast<double>(ops),
                static_cast<double>(delta.media_write_bytes) / 256.0 / static_cast<double>(ops));
  }
};

uint64_t InsertRandom(kvindex::KvIndex& index, uint64_t n, uint64_t salt) {
  Rng rng(salt);
  for (uint64_t i = 0; i < n; i++) {
    index.Upsert(Mix64(rng.Next()) | 1, i + 1);
  }
  return n;
}

}  // namespace

int main() {
  const uint64_t kOps = 100'000;
  std::printf("CCL-BTree paper tour — %llu random inserts per configuration\n\n",
              (unsigned long long)kOps);

  // --- Step 0: the problem. Direct random leaf writes (ablation "Base":
  // N_batch = 0, so every insert is a trigger write). ----------------------
  {
    kvindex::RuntimeOptions ro;
    ro.device.pool_bytes = 2ULL << 30;
    kvindex::Runtime rt(ro);
    core::TreeOptions opt;
    opt.nbatch = 0;
    opt.gc_quantum_ops = 0;
    core::CclBTree tree(rt, opt);
    pmsim::ThreadContext ctx(rt.device(), 0, 0);
    Probe probe(rt.device());
    InsertRandom(tree, kOps, 1);
    probe.Report("Base (direct leaf writes)", kOps);
  }

  // --- Step 1: leaf-node centric buffering (naive logging). ------------------
  {
    kvindex::RuntimeOptions ro;
    ro.device.pool_bytes = 2ULL << 30;
    kvindex::Runtime rt(ro);
    core::TreeOptions opt;
    opt.write_conservative_logging = false;
    opt.gc_quantum_ops = 0;
    core::CclBTree tree(rt, opt);
    pmsim::ThreadContext ctx(rt.device(), 0, 0);
    Probe probe(rt.device());
    InsertRandom(tree, kOps, 1);
    probe.Report("+BNode (buffering, naive WAL)", kOps);
    std::printf("%-34s %8llu entries in WAL (every insert logged)\n", "",
                (unsigned long long)(tree.log_live_bytes() / 24));
  }

  // --- Step 2: write-conservative logging. -----------------------------------
  {
    kvindex::RuntimeOptions ro;
    ro.device.pool_bytes = 2ULL << 30;
    kvindex::Runtime rt(ro);
    core::TreeOptions opt;  // full design
    opt.gc_quantum_ops = 0;
    core::CclBTree tree(rt, opt);
    pmsim::ThreadContext ctx(rt.device(), 0, 0);
    Probe probe(rt.device());
    InsertRandom(tree, kOps, 1);
    probe.Report("+WLog (skip trigger writes)", kOps);
    std::printf("%-34s %8llu entries in WAL (~N_batch/(N_batch+1) of inserts)\n", "",
                (unsigned long long)(tree.log_live_bytes() / 24));

    // --- Step 3: locality-aware GC. -------------------------------------------
    uint64_t before = tree.log_live_bytes();
    Probe gc_probe(rt.device());
    tree.RunGcOnce();
    rt.device().DrainBuffers();
    auto delta = rt.device().stats().Snapshot().Delta(gc_probe.last);
    std::printf("\nlocality-aware GC: log %llu KB -> %llu KB, media written during GC: %llu KB\n",
                (unsigned long long)(before / 1024),
                (unsigned long long)(tree.log_live_bytes() / 1024),
                (unsigned long long)(delta.media_write_bytes / 1024));
    std::printf("(sequential I-log copies only — no random leaf flush-back)\n");

    // --- And the safety net: crash + recovery. --------------------------------
    std::printf("\ncrash + recovery audit: ");
    Rng rng(1);  // replay the same key stream to know what must exist
    rt.device().Crash();
    std::string reopen_error;
    if (!rt.Reopen(&reopen_error)) {
      std::printf("reopen failed: %s\n", reopen_error.c_str());
      return 1;
    }
    auto recovered = std::make_unique<core::CclBTree>(rt, opt, kvindex::Lifecycle::kAttach);
    if (!recovered->Recover(rt, /*recovery_threads=*/1)) {
      std::printf("recovery failed\n");
      return 1;
    }
    uint64_t missing = 0;
    for (uint64_t i = 0; i < kOps; i++) {
      uint64_t key = Mix64(rng.Next()) | 1;
      uint64_t value = 0;
      if (!recovered->Lookup(key, &value)) {
        missing++;
      }
    }
    std::printf("%llu of %llu keys missing after power failure\n",
                (unsigned long long)missing, (unsigned long long)kOps);
  }
  return 0;
}
