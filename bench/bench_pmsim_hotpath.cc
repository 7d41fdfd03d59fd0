// Wall-clock microbenchmark for the pmsim hot path and the whole-tree query
// paths. Unlike every other bench in this directory, the reported metric IS
// host wall time: virtual-time results are unaffected by these CPU-side
// optimizations by design, so wall throughput is what we track here.
//
// Two scenario families:
//   * pmsim instrumentation layer: FlushLine/Fence/ReadPm mixes at 1 and N
//     OS threads, plus a PersistRange stress (pending-set dedup).
//   * whole-tree CCL-BTree operations: point lookup (hit/miss), upsert,
//     short scans, at 1 thread and N OS threads. Scenarios report the median
//     of kTreeReps reps.
//
// Also counts heap allocations during each measured region via a global
// operator new/delete override, so "allocation-free hot path" is a number in
// the output rather than a claim in a doc. Steady-state CCL-BTree lookups,
// scans and upserts are *asserted* allocation-free (the binary fails
// otherwise).
//
// Usage: bench_pmsim_hotpath [output.json]   (default: BENCH_pmsim.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/ccl_btree.h"
#include "src/pmsim/device.h"

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
std::atomic<bool> g_count_allocs{false};
}  // namespace

// The replacement operators pair new/new[] with malloc and delete/delete[]
// with free by design; GCC's heuristic flags the cross-family pairing when
// it inlines both sides into one caller.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace cclbt::pmsim {
namespace {

struct ScenarioResult {
  std::string name;
  int threads = 1;
  uint64_t ops = 0;
  double wall_ms = 0;
  double mops_wall = 0;
  uint64_t heap_allocs = 0;
};

DeviceConfig HotpathConfig() {
  DeviceConfig config;
  config.pool_bytes = 256 << 20;
  config.num_sockets = 1;
  config.dimms_per_socket = 4;
  // Shadow-image upkeep is a memcpy, not instrumentation; keep it out of the
  // measurement so the XPBuffer/stats/pending path dominates.
  config.crash_tracking = false;
  return config;
}

// One worker's flush-heavy inner loop: random single-line flushes over a
// private region (mostly XPBuffer misses, the worst case), fence every 4th.
// `region_xplines` must be a power of two: the index is masked, not modulo'd,
// to keep the driver loop itself off the measurement.
void FlushHeavyWorker(PmDevice& device, ThreadContext& ctx, uint64_t region_base,
                      uint64_t region_xplines, uint64_t ops, uint64_t seed) {
  Rng rng(seed);
  for (uint64_t i = 0; i < ops; i++) {
    uint64_t offset = region_base + (rng.Next() & (region_xplines - 1)) * kXplineBytes;
    device.FlushLine(ctx, device.base() + offset);
    if ((i & 3) == 3) {
      device.Fence(ctx);
    }
  }
  device.Fence(ctx);
}

template <typename Fn>
ScenarioResult Measure(const std::string& name, int threads, uint64_t ops, Fn&& body) {
  g_heap_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  auto start = std::chrono::steady_clock::now();
  body();
  auto stop = std::chrono::steady_clock::now();
  g_count_allocs.store(false, std::memory_order_relaxed);
  ScenarioResult result;
  result.name = name;
  result.threads = threads;
  result.ops = ops;
  result.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(stop - start).count();
  result.mops_wall = result.wall_ms <= 0 ? 0 : static_cast<double>(ops) / 1e3 / result.wall_ms;
  result.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
  return result;
}

// Single-thread flush-heavy mix: the acceptance-criteria scenario.
ScenarioResult RunFlushHeavy1T() {
  PmDevice device(HotpathConfig());
  ThreadContext ctx(device, 0, 0);
  const uint64_t kOps = 4'000'000;
  const uint64_t kRegionXplines = 1 << 16;
  // Warm: touch the region and let vectors/tables reach steady-state size.
  FlushHeavyWorker(device, ctx, 4096, kRegionXplines, 100'000, 1);
  return Measure("flush_heavy_1t", 1, kOps,
                 [&] { FlushHeavyWorker(device, ctx, 4096, kRegionXplines, kOps, 2); });
}

// N OS threads, each flushing a private region (all DIMMs shared). Threads
// and their contexts are created before the measured region so thread-spawn
// allocations do not pollute the hot-path allocation count.
ScenarioResult RunFlushHeavyNT() {
  unsigned hw = std::thread::hardware_concurrency();
  int threads = static_cast<int>(hw == 0 ? 4 : (hw > 8 ? 8 : hw));
  PmDevice device(HotpathConfig());
  const uint64_t kOpsPerThread = 1'000'000;
  const uint64_t kRegionXplines = 1 << 15;
  std::atomic<int> ready{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; w++) {
    workers.emplace_back([&, w] {
      ThreadContext ctx(device, 0, w);
      uint64_t region_base = 4096 + static_cast<uint64_t>(w) * (kRegionXplines * kXplineBytes);
      // Warm before signalling ready: steady-state table sizes, hot caches.
      FlushHeavyWorker(device, ctx, region_base, kRegionXplines, 50'000,
                       static_cast<uint64_t>(w) + 177);
      ready.fetch_add(1);
      while (!start.load(std::memory_order_acquire)) {
      }
      FlushHeavyWorker(device, ctx, region_base, kRegionXplines, kOpsPerThread,
                       static_cast<uint64_t>(w) + 77);
    });
  }
  while (ready.load() < threads) {
    std::this_thread::yield();
  }
  uint64_t total_ops = kOpsPerThread * static_cast<uint64_t>(threads);
  return Measure("flush_heavy_nt", threads, total_ops, [&] {
    start.store(true, std::memory_order_release);
    for (auto& t : workers) {
      t.join();
    }
  });
}

// 50/50 flush+fence / read mix on one thread.
ScenarioResult RunMixed1T() {
  PmDevice device(HotpathConfig());
  ThreadContext ctx(device, 0, 0);
  const uint64_t kOps = 2'000'000;
  const uint64_t kRegionXplines = 1 << 16;
  auto body = [&](uint64_t ops, uint64_t seed) {
    Rng rng(seed);
    for (uint64_t i = 0; i < ops; i++) {
      uint64_t offset = 4096 + (rng.Next() & (kRegionXplines - 1)) * kXplineBytes;
      if ((i & 1) == 0) {
        device.FlushLine(ctx, device.base() + offset);
        device.Fence(ctx);
      } else {
        device.ReadPm(ctx, device.base() + offset, kCachelineBytes);
      }
    }
  };
  body(100'000, 5);  // warm
  return Measure("mixed_1t", 1, kOps, [&] { body(kOps, 6); });
}

// Large PersistRange calls: many pending lines per fence, which is quadratic
// if the pending-set dedup is a linear scan.
ScenarioResult RunLargePersist() {
  PmDevice device(HotpathConfig());
  ThreadContext ctx(device, 0, 0);
  const uint64_t kRangeBytes = 256 << 10;  // 4096 lines per fence group
  const uint64_t kCalls = 400;
  const uint64_t kOps = kCalls * (kRangeBytes / kCachelineBytes);
  auto body = [&](uint64_t calls, uint64_t seed) {
    Rng rng(seed);
    for (uint64_t i = 0; i < calls; i++) {
      uint64_t offset = 4096 + (rng.Next() & 511) * kRangeBytes;
      device.PersistRange(ctx, device.base() + offset, kRangeBytes);
    }
  };
  body(20, 8);  // warm
  return Measure("large_persist_1t", 1, kOps, [&] { body(kCalls, 9); });
}

// --- whole-tree scenarios ----------------------------------------------------
// Wall-clock cost of complete CCL-BTree operations: DRAM inner descent +
// buffer-node probe + PM leaf probe (plus WAL/flush on upserts). The pmsim
// virtual-time charges still run — they are part of every real execution of
// these paths — so this measures the end-to-end engine, not a stripped copy.

constexpr int kTreeReps = 5;
constexpr int kTreeReadThreads = 4;

uint64_t TreeScale() {
  // CCL_BENCH_SCALE (used by CI to shrink runs) caps the keyspace.
  const char* env = std::getenv("CCL_BENCH_SCALE");
  uint64_t scale = 400'000;
  if (env != nullptr) {
    long long v = std::atoll(env);
    if (v > 0) {
      scale = static_cast<uint64_t>(v);
    }
  }
  return scale < 10'000 ? 10'000 : scale;
}

uint64_t TreeKey(uint64_t i) { return cclbt::Mix64(i) | 1; }  // bijective, nonzero

// Median-of-reps wrapper: runs `body` kTreeReps times and keeps the median
// wall time; heap_allocs reports the *max* across reps so the zero-alloc
// assertions cover every rep, not just the median one.
template <typename Fn>
ScenarioResult MeasureMedian(const std::string& name, int threads, uint64_t ops, Fn&& body) {
  std::vector<ScenarioResult> reps;
  for (int rep = 0; rep < kTreeReps; rep++) {
    reps.push_back(Measure(name, threads, ops, body));
  }
  std::sort(reps.begin(), reps.end(),
            [](const ScenarioResult& a, const ScenarioResult& b) { return a.wall_ms < b.wall_ms; });
  ScenarioResult median = reps[reps.size() / 2];
  for (const auto& r : reps) {
    median.heap_allocs = std::max(median.heap_allocs, r.heap_allocs);
  }
  return median;
}

struct TreeFixture {
  std::unique_ptr<kvindex::Runtime> runtime;
  std::unique_ptr<core::CclBTree> tree;
  uint64_t scale = 0;

  TreeFixture() {
    scale = TreeScale();
    kvindex::RuntimeOptions runtime_options;
    runtime_options.device.pool_bytes = 2ULL << 30;
    runtime_options.device.num_sockets = 1;
    runtime_options.device.crash_tracking = false;
    runtime = std::make_unique<kvindex::Runtime>(runtime_options);
    core::TreeOptions tree_options;
    // GC off: wall-clock scenarios must not interleave GC rounds (the GC
    // schedule is exercised — and frozen — by the virtual-time benches).
    tree_options.gc_quantum_ops = 0;
    tree = std::make_unique<core::CclBTree>(*runtime, tree_options);
    pmsim::ThreadContext ctx(runtime->device(), 0, 0);
    for (uint64_t i = 0; i < scale; i++) {
      tree->Upsert(TreeKey(i), i + 1);
    }
    tree->FlushAll();
  }
};

// `hit`: probe present keys (buffer/read-cache + leaf fingerprint path);
// otherwise probe the disjoint key range [scale, 2*scale) (miss path:
// fingerprint filter rejects, no KV line touched on most probes).
void LookupWorker(core::CclBTree& tree, uint64_t scale, bool hit, uint64_t ops, uint64_t seed,
                  std::atomic<uint64_t>& sink) {
  Rng rng(seed);
  uint64_t found = 0;
  uint64_t acc = 0;
  for (uint64_t i = 0; i < ops; i++) {
    uint64_t idx = rng.NextBounded(scale) + (hit ? 0 : scale);
    uint64_t value = 0;
    if (tree.Lookup(TreeKey(idx), &value)) {
      found++;
      acc ^= value;
    }
  }
  sink.fetch_add(found + acc, std::memory_order_relaxed);
}

ScenarioResult RunTreeLookup1T(TreeFixture& fx, bool hit) {
  pmsim::ThreadContext ctx(fx.runtime->device(), 0, 0);
  const uint64_t kOps = fx.scale;
  std::atomic<uint64_t> sink{0};
  LookupWorker(*fx.tree, fx.scale, hit, kOps / 10, 11, sink);  // warm
  std::string name = std::string("ccl_lookup_") + (hit ? "hit" : "miss") + "_1t";
  return MeasureMedian(name, 1, kOps, [&] {
    LookupWorker(*fx.tree, fx.scale, hit, kOps, 13, sink);
  });
}

ScenarioResult RunTreeLookupNT(TreeFixture& fx) {
  const uint64_t kOpsPerThread = fx.scale / 2;
  std::atomic<uint64_t> sink{0};
  std::string name = std::string("ccl_lookup_hit_") + std::to_string(kTreeReadThreads) + "t";
  // Unlike the 1T scenarios, each rep pays thread spawn inside the measured
  // region; the median damps scheduler noise. Contexts live in the workers
  // (per-thread clocks).
  return MeasureMedian(name, kTreeReadThreads, kOpsPerThread * kTreeReadThreads, [&] {
    std::vector<std::thread> workers;
    for (int w = 0; w < kTreeReadThreads; w++) {
      workers.emplace_back([&fx, &sink, kOpsPerThread, w] {
        pmsim::ThreadContext ctx(fx.runtime->device(), 0, w);
        LookupWorker(*fx.tree, fx.scale, /*hit=*/true, kOpsPerThread,
                     static_cast<uint64_t>(w) + 31, sink);
      });
    }
    for (auto& t : workers) {
      t.join();
    }
  });
}

ScenarioResult RunTreeUpsert1T(TreeFixture& fx) {
  pmsim::ThreadContext ctx(fx.runtime->device(), 0, 0);
  const uint64_t kOps = fx.scale / 2;
  // Steady state: overwrite existing keys, so batches apply in place (no
  // splits, no new buffer nodes) — the allocation-free regime the WAL chunk
  // list is pre-sized for.
  auto body = [&](uint64_t ops, uint64_t seed) {
    Rng rng(seed);
    for (uint64_t i = 0; i < ops; i++) {
      uint64_t idx = rng.NextBounded(fx.scale);
      fx.tree->Upsert(TreeKey(idx), idx + 7);
    }
  };
  body(kOps / 10, 17);  // warm
  return MeasureMedian("ccl_upsert_1t", 1, kOps, [&] { body(kOps, 19); });
}

ScenarioResult RunTreeScan1T(TreeFixture& fx) {
  pmsim::ThreadContext ctx(fx.runtime->device(), 0, 0);
  constexpr size_t kScanLen = 100;
  const uint64_t kScans = fx.scale / 50;
  std::vector<kvindex::KeyValue> out(kScanLen);
  std::atomic<uint64_t> sink{0};
  auto body = [&](uint64_t scans, uint64_t seed) {
    Rng rng(seed);
    uint64_t acc = 0;
    for (uint64_t i = 0; i < scans; i++) {
      acc += fx.tree->Scan(TreeKey(rng.NextBounded(fx.scale)), kScanLen, out.data());
    }
    sink.fetch_add(acc, std::memory_order_relaxed);
  };
  body(kScans / 10, 23);  // warm
  return MeasureMedian("ccl_scan_1t", 1, kScans * kScanLen, [&] { body(kScans, 29); });
}

}  // namespace
}  // namespace cclbt::pmsim

int main(int argc, char** argv) {
  using cclbt::pmsim::ScenarioResult;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_pmsim.json";
  std::vector<ScenarioResult> results;
  results.push_back(cclbt::pmsim::RunFlushHeavy1T());
  results.push_back(cclbt::pmsim::RunFlushHeavyNT());
  results.push_back(cclbt::pmsim::RunMixed1T());
  results.push_back(cclbt::pmsim::RunLargePersist());

  {
    cclbt::pmsim::TreeFixture fx;
    results.push_back(cclbt::pmsim::RunTreeLookup1T(fx, /*hit=*/true));
    results.push_back(cclbt::pmsim::RunTreeLookup1T(fx, /*hit=*/false));
    results.push_back(cclbt::pmsim::RunTreeLookupNT(fx));
    results.push_back(cclbt::pmsim::RunTreeScan1T(fx));
    results.push_back(cclbt::pmsim::RunTreeUpsert1T(fx));
  }

  // Hard gate, not an advisory number: steady-state tree lookups, scans and
  // upserts must be allocation-free (max over reps; see the WAL chunk-list
  // reserve in src/core/wal.h).
  int status = 0;
  for (const auto& r : results) {
    bool must_be_alloc_free = r.name == "ccl_lookup_hit_1t" || r.name == "ccl_lookup_miss_1t" ||
                              r.name == "ccl_scan_1t" || r.name == "ccl_upsert_1t";
    if (must_be_alloc_free && r.heap_allocs != 0) {
      std::fprintf(stderr, "FAIL: %s allocated %llu times in a measured rep (expected 0)\n",
                   r.name.c_str(), static_cast<unsigned long long>(r.heap_allocs));
      status = 1;
    }
  }
  for (const auto& r : results) {
    std::printf("%-18s threads=%d ops=%llu wall_ms=%.1f Mops(wall)=%.2f heap_allocs=%llu\n",
                r.name.c_str(), r.threads, static_cast<unsigned long long>(r.ops), r.wall_ms,
                r.mops_wall, static_cast<unsigned long long>(r.heap_allocs));
  }

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"pmsim_hotpath\",\n  \"scenarios\": [\n");
  for (size_t i = 0; i < results.size(); i++) {
    const auto& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"threads\": %d, \"ops\": %llu, \"wall_ms\": %.3f, "
                 "\"mops_wall\": %.4f, \"heap_allocs_measured\": %llu}%s\n",
                 r.name.c_str(), r.threads, static_cast<unsigned long long>(r.ops), r.wall_ms,
                 r.mops_wall, static_cast<unsigned long long>(r.heap_allocs),
                 i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return status;
}
