#include "src/bench/driver.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>

#include "src/bench/measured_phase.h"
#include "src/bench/trace_dump.h"
#include "src/common/rng.h"
#include "src/common/zipfian.h"
#include "src/metrics/clock.h"
#include "src/metrics/metrics.h"
#include "src/pmem/value_store.h"
#include "src/trace/trace.h"

namespace cclbt::bench {

namespace {

// Builds a value word: inline for <= 8 B, out-of-band handle otherwise.
// Callers pass an even seed_word that is unique across the whole run (warm,
// insert, and update phases use disjoint ranges): rewriting a key must always
// change its value, or the rewrite persists a cacheline whose content already
// equals the durable image — a redundant flush pmcheck rightly flags.
uint64_t MakeValue(kvindex::Runtime& rt, const RunConfig& config, uint64_t seed_word) {
  if (config.value_bytes <= 8) {
    return seed_word | 1;
  }
  std::vector<std::byte> payload(config.value_bytes, std::byte{0xAB});
  std::memcpy(payload.data(), &seed_word, sizeof(seed_word));
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  return rt.values().Append(payload, ctx->socket());
}

// Variable-size keys are modeled at the driver level: each operation pays
// key-blob PM reads during traversal (two comparisons resolve to actual key
// data on average thanks to fingerprints), and each insert persists a new
// key blob. See DESIGN.md §6.
struct KeyBlobModel {
  std::vector<uint64_t> handles;  // sampled blob handles in PM

  void ChargeTraversal(kvindex::Runtime& rt, Rng& rng) const {
    if (handles.empty()) {
      return;
    }
    for (int probe = 0; probe < 2; probe++) {
      uint64_t handle = handles[rng.NextBounded(handles.size())];
      rt.values().Read(handle);
    }
  }
};

// Interleaves `threads` logical workers. Each call of `step(w)` performs a
// bounded slice of operations and returns false once worker w is finished.
// Default mode: all workers share the calling OS thread, sliced round-robin
// so their virtual clocks advance roughly in lockstep (which the per-DIMM
// queueing model assumes); os_parallel mode uses real threads instead.
template <typename StepFn>
void Schedule(const RunConfig& config, std::vector<std::unique_ptr<pmsim::ThreadContext>>& ctxs,
              StepFn&& step) {
  if (config.os_parallel) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(config.threads));
    for (int w = 0; w < config.threads; w++) {
      threads.emplace_back([&, w] {
        pmsim::ThreadContext::SetCurrent(ctxs[static_cast<size_t>(w)].get());
        while (step(w)) {
        }
        pmsim::ThreadContext::SetCurrent(nullptr);
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    return;
  }
  std::vector<bool> alive(static_cast<size_t>(config.threads), true);
  bool any_alive = true;
  while (any_alive) {
    any_alive = false;
    for (int w = 0; w < config.threads; w++) {
      if (!alive[static_cast<size_t>(w)]) {
        continue;
      }
      pmsim::ThreadContext::SetCurrent(ctxs[static_cast<size_t>(w)].get());
      alive[static_cast<size_t>(w)] = step(w);
      any_alive = any_alive || alive[static_cast<size_t>(w)];
    }
  }
  pmsim::ThreadContext::SetCurrent(nullptr);
}

// Ops per scheduling slice: small enough to bound virtual-clock skew between
// workers to a few microseconds.
constexpr uint64_t kSliceOps = 1;

std::vector<std::unique_ptr<pmsim::ThreadContext>> MakeContexts(kvindex::Runtime& runtime,
                                                                const RunConfig& config) {
  std::vector<std::unique_ptr<pmsim::ThreadContext>> ctxs;
  ctxs.reserve(static_cast<size_t>(config.threads));
  for (int w = 0; w < config.threads; w++) {
    ctxs.push_back(std::make_unique<pmsim::ThreadContext>(
        runtime.device(), runtime.SocketForWorker(w, config.threads_per_socket), w));
  }
  pmsim::ThreadContext::SetCurrent(nullptr);
  return ctxs;
}

}  // namespace

uint64_t WarmKey(const RunConfig& config, uint64_t i) {
  if (config.preset_keys != nullptr) {
    return (*config.preset_keys)[i];
  }
  if (config.dist == KeyDistribution::kSequential) {
    return i + 1;
  }
  return Mix64(i) | 1;
}

RunResult RunWorkload(kvindex::Runtime& runtime, kvindex::KvIndex& index,
                      const RunConfig& config) {
  assert(config.threads >= 1);
  // Sequential-only features requested under os_parallel would be dropped on
  // the floor below (a shared op counter / epoch snapshot would race across
  // real threads). Fail loudly instead of ignoring the user's config: one
  // warning per dropped feature, surfaced in RunResult::warnings and on
  // stderr.
  std::vector<std::string> warnings;
  if (config.os_parallel && config.gc_epoch_ops != 0) {
    warnings.emplace_back(
        "gc_epoch_ops ignored: driver-paced GC requires sequential "
        "scheduling (os_parallel=true races the shared op counter)");
  }
  if (config.os_parallel && (config.metrics || MetricsDumpRequested()) && config.ops > 0) {
    warnings.emplace_back(
        "metrics epoch series not collected: virtual-time epochs require "
        "sequential scheduling (os_parallel=true); only end-of-run totals "
        "are reported");
  }
  for (const std::string& w : warnings) {
    std::fprintf(stderr, "driver[%s]: WARNING: %s\n",
                 config.trace_label.empty() ? "run" : config.trace_label.c_str(), w.c_str());
  }
  if (config.preset_keys != nullptr) {
    assert(config.preset_keys->size() >= config.warm_keys + config.ops);
  }

  KeyBlobModel key_blobs;

  // --- warm-up phase -----------------------------------------------------------
  {
    auto ctxs = MakeContexts(runtime, config);
    uint64_t per_thread = config.warm_keys / static_cast<uint64_t>(config.threads);
    std::vector<uint64_t> cursor(static_cast<size_t>(config.threads));
    std::vector<uint64_t> limit(static_cast<size_t>(config.threads));
    for (int w = 0; w < config.threads; w++) {
      cursor[static_cast<size_t>(w)] = static_cast<uint64_t>(w) * per_thread;
      limit[static_cast<size_t>(w)] =
          w + 1 == config.threads ? config.warm_keys : cursor[static_cast<size_t>(w)] + per_thread;
    }
    Schedule(config, ctxs, [&](int w) {
      uint64_t& i = cursor[static_cast<size_t>(w)];
      uint64_t end = std::min(limit[static_cast<size_t>(w)], i + kSliceOps);
      for (; i < end; i++) {
        index.Upsert(WarmKey(config, i), MakeValue(runtime, config, (i + 1) << 1));
      }
      return i < limit[static_cast<size_t>(w)];
    });
  }
  if (config.key_bytes > 8) {
    pmsim::ThreadContext ctx(runtime.device(), 0, 0);
    auto sample = static_cast<size_t>(std::min<uint64_t>(config.warm_keys, 100'000));
    std::vector<std::byte> blob(config.key_bytes, std::byte{0x5A});
    key_blobs.handles.reserve(sample);
    for (size_t i = 0; i < sample; i++) {
      key_blobs.handles.push_back(runtime.values().Append(blob, 0));
    }
  }

  // --- measurement phase ----------------------------------------------------------
  runtime.device().ResetCosts();
  // pmtrace: event tracing covers the measurement phase only. Rings are
  // cleared first so a dump shows this phase, not the warm-up; contexts
  // created below pick up rings because tracing is already enabled.
  const bool tracing = TraceDumpRequested();
  if (tracing) {
    trace::ClearRings();
    trace::SetEnabled(true);
  }
  if (config.collect_component_latency) {
    trace::SetScopeTiming(true);
  }
  // Metrics registry and epoch series: measurement phase only, CPU-side by
  // construction, so enabling them cannot move a virtual metric. Epochs need
  // sequential scheduling: epoch ends taken from concurrent OS threads would
  // interleave nondeterministically.
  MeasuredPhase phase(runtime.device(), config.metrics, !config.os_parallel && config.ops > 0,
                      [&index](MeasuredPhase::Gauges* gauges) { index.SampleGauges(gauges); });
  const bool metrics_on = phase.metrics();

  // Zipfian state only for Zipfian runs, and zeta only once per run: each
  // worker draws from a reseeded copy of one shape.
  std::optional<ZipfianGenerator> zipf_shape;
  if (config.dist == KeyDistribution::kZipfian) {
    zipf_shape.emplace(config.warm_keys + config.ops == 0 ? 1 : config.warm_keys + config.ops,
                       config.zipf_theta);
  }

  struct WorkerState {
    Rng rng;
    std::optional<ZipfianGenerator> zipf;
    YcsbOpPicker picker;
    std::vector<kvindex::KeyValue> scan_out;
    uint64_t cursor = 0;
    uint64_t limit = 0;
    // Per-component share of each op's latency (collect_component_latency).
    // Whole-op latency goes through the metrics registry instead.
    std::array<metrics::Histogram, trace::kNumComponents> comp_latency;
    uint64_t final_vtime = 0;

    WorkerState(const RunConfig& config, const std::optional<ZipfianGenerator>& zipf_shape, int w)
        : rng(config.seed * 977 + static_cast<uint64_t>(w)),
          picker(config.mix != nullptr ? *config.mix : kYcsbInsertOnly,
                 config.seed + static_cast<uint64_t>(w) * 13),
          scan_out(config.scan_len) {
      if (zipf_shape) {
        zipf.emplace(*zipf_shape, config.seed * 31 + static_cast<uint64_t>(w));
      }
    }
  };

  std::vector<WorkerState> states;
  states.reserve(static_cast<size_t>(config.threads));
  uint64_t per_thread_ops = config.ops / static_cast<uint64_t>(config.threads);
  for (int w = 0; w < config.threads; w++) {
    states.emplace_back(config, zipf_shape, w);
    states.back().cursor = static_cast<uint64_t>(w) * per_thread_ops;
    states.back().limit =
        w + 1 == config.threads ? config.ops : states.back().cursor + per_thread_ops;
  }

  uint64_t write_bytes = 8 + std::max<size_t>(config.value_bytes, 8) +
                         (config.key_bytes > 8 ? config.key_bytes - 8 : 0);

  auto run_one = [&](WorkerState& st, uint64_t i) {
    pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
    OpType op = config.mix != nullptr ? st.picker.Next() : config.op;
    uint64_t t0 = ctx->now_ns();
    // Wall clock read only on the enabled path (sanctioned shim, lint R6).
    uint64_t wall0 = metrics_on ? metrics::WallNowNs() : 0;
    // Scope-timing table snapshot at op start. The flush first charges any
    // straggler time (inter-op gaps, worker switches) outside the op, so the
    // end-of-op delta is exactly this op's per-component time.
    uint64_t comp_before[trace::kNumComponents] = {};
    if (config.collect_component_latency) {
      trace::FlushScopeTime();
      const uint64_t* table = trace::ThreadComponentNs();
      std::copy(table, table + trace::kNumComponents, comp_before);
    }
    if (config.key_bytes > 8) {
      key_blobs.ChargeTraversal(runtime, st.rng);
    }
    uint64_t key = 0;
    uint64_t value = 0;
    switch (op) {
      case OpType::kInsert:
        // Fresh keys beyond the warm space (the paper "upserts the remaining
        // 50 M KVs"); Zipfian draws over the whole space (upsert semantics).
        if (config.preset_keys != nullptr) {
          key = (*config.preset_keys)[config.warm_keys + i];
        } else if (st.zipf) {
          key = Mix64(st.zipf->NextRank()) | 1;
        } else if (config.dist == KeyDistribution::kSequential) {
          key = config.warm_keys + i + 1;
        } else {
          key = Mix64(config.warm_keys + i) | 1;
        }
        value = MakeValue(runtime, config, (config.warm_keys + i + 1) << 1);
        break;
      case OpType::kUpdate:
      case OpType::kRead:
        key = st.zipf ? Mix64(st.zipf->NextRank() % config.warm_keys) | 1
                      : WarmKey(config, st.rng.NextBounded(config.warm_keys));
        if (op == OpType::kUpdate) {
          value = MakeValue(runtime, config, (config.warm_keys + config.ops + i + 1) << 1);
        }
        break;
      case OpType::kDelete:
      case OpType::kScan:
        key = WarmKey(config, st.rng.NextBounded(config.warm_keys));
        break;
    }
    metrics::OpKind kind =
        ExecuteOp(index, op, key, value, write_bytes, config.scan_len, st.scan_out.data());
    if (metrics_on) {
      metrics::RecordOp(kind, ctx->now_ns() - t0, metrics::WallNowNs() - wall0);
    }
    if (config.collect_component_latency) {
      trace::FlushScopeTime();
      const uint64_t* table = trace::ThreadComponentNs();
      for (int c = 0; c < trace::kNumComponents; c++) {
        uint64_t d = table[c] - comp_before[c];
        if (d != 0) {
          st.comp_latency[static_cast<size_t>(c)].Record(d);
        }
      }
    }
  };

  // Driver-paced GC epochs (gc_epoch_ops): sequential scheduling only — the
  // shared counter below would race under os_parallel.
  const uint64_t gc_epoch_ops = config.os_parallel ? 0 : config.gc_epoch_ops;
  uint64_t gc_epoch_counter = 0;

  {
    auto ctxs = MakeContexts(runtime, config);
    Schedule(config, ctxs, [&](int w) {
      WorkerState& st = states[static_cast<size_t>(w)];
      uint64_t end = std::min(st.limit, st.cursor + kSliceOps);
      for (; st.cursor < end; st.cursor++) {
        run_one(st, st.cursor);
        if (gc_epoch_ops != 0 && ++gc_epoch_counter % gc_epoch_ops == 0) {
          index.GcTick();
        }
        phase.Tick(pmsim::ThreadContext::Current()->now_ns());
      }
      bool more = st.cursor < st.limit;
      if (!more) {
        st.final_vtime = pmsim::ThreadContext::Current()->now_ns();
      }
      return more;
    });
  }

  RunResult result;
  result.warnings = std::move(warnings);
  // The frontier is the slowest worker's end, not the largest clock now:
  // naive GC's RaiseContextClocks can advance a finished worker's clock.
  uint64_t worker_ns = 0;
  for (const auto& st : states) {
    worker_ns = std::max(worker_ns, st.final_vtime);
  }
  const std::string label = config.trace_label.empty() ? "run" : config.trace_label;
  uint64_t elapsed_ns = phase.Finish(worker_ns, label, static_cast<uint64_t>(config.threads),
                                     config.ops, &result);
  result.max_worker_vtime_ms = static_cast<double>(worker_ns) / 1e6;
  result.max_dimm_busy_ms = static_cast<double>(runtime.device().MaxDimmBusyNs()) / 1e6;
  result.mops = elapsed_ns == 0
                    ? 0.0
                    : static_cast<double>(config.ops) * 1e3 / static_cast<double>(elapsed_ns);
  for (const auto& st : states) {
    for (size_t c = 0; c < st.comp_latency.size(); c++) {
      result.component_latency[c].Merge(st.comp_latency[c]);
    }
  }
  // Whole-op latency view: every op kind merged.
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    result.latency.Merge(result.metrics_snapshot.op_virtual[k]);
  }
  result.footprint = index.Footprint();
  if (pmsim::PmCheck* check = runtime.device().pmcheck(); check != nullptr) {
    result.pmcheck = check->Snapshot();
  }
  if (pmsim::LockCheck* locks = runtime.device().lockcheck(); locks != nullptr) {
    result.lockcheck = locks->Snapshot();
  }

  if (tracing) {
    result.trace_dump_path =
        WriteTraceDump(runtime, label, result.stats, result.elapsed_virtual_ms);
    trace::SetEnabled(false);
    trace::ClearRings();
  }
  if (config.collect_component_latency) {
    trace::SetScopeTiming(false);
  }
  return result;
}

RunResult RunIndexWorkload(const std::string& index_name, const RunConfig& config,
                           const IndexConfig& index_config, size_t pool_bytes) {
  kvindex::RuntimeOptions runtime_options;
  runtime_options.device.pool_bytes = pool_bytes;
  // When a trace dump is requested, also record the per-XPLine heatmap (the
  // counters only exist when enabled at device construction).
  runtime_options.device.record_unit_heatmap = TraceDumpRequested();
  runtime_options.device.pmcheck = config.pmcheck;
  runtime_options.device.lockcheck = config.lockcheck;
  runtime_options.device.backend = config.backend;
  if (config.media_unit_bytes != 0) {
    runtime_options.device.xpline_bytes = config.media_unit_bytes;
  }
  if (config.media_buffer_bytes != 0) {
    runtime_options.device.xpbuffer_bytes = config.media_buffer_bytes;
  }
  runtime_options.device.cxl_volatile_buffer = config.cxl_volatile_buffer;
  kvindex::Runtime runtime(runtime_options);
  auto index = MakeIndex(index_name, runtime, index_config);
  const std::string label = config.trace_label.empty() ? index_name : config.trace_label;
  RunConfig labeled = config;
  labeled.trace_label = label;
  RunResult result = RunWorkload(runtime, *index, labeled);
  if (pmsim::PmCheck* check = runtime.device().pmcheck(); check != nullptr) {
    // The runtime is torn down on return, so this is the pool close from the
    // checker's point of view: run the unflushed-at-close scan and take the
    // final report. Happens after the metric snapshot above — media traffic
    // drained here never reaches the returned stats, and no virtual time is
    // charged (determinism contract, DESIGN.md §10).
    runtime.device().DrainBuffers();
    result.pmcheck = check->Snapshot();
    if (!result.trace_dump_path.empty()) {
      AppendPmCheckSection(result.trace_dump_path, result.pmcheck);
    }
    std::fprintf(stderr,
                 "pmcheck[%s]: %llu violation(s), %llu informational, %llu suppressed, "
                 "%llu fence epochs\n",
                 label.c_str(), static_cast<unsigned long long>(result.pmcheck.total()),
                 static_cast<unsigned long long>(result.pmcheck.total_info()),
                 static_cast<unsigned long long>(result.pmcheck.total_suppressed()),
                 static_cast<unsigned long long>(result.pmcheck.fence_epochs));
    for (int c = 0; c < pmsim::kNumPmCheckClasses; c++) {
      if (result.pmcheck.counts[static_cast<size_t>(c)] != 0) {
        std::fprintf(stderr, "pmcheck[%s]:   %-20s %llu\n", label.c_str(),
                     pmsim::PmCheckClassName(static_cast<pmsim::PmCheckClass>(c)),
                     static_cast<unsigned long long>(
                         result.pmcheck.counts[static_cast<size_t>(c)]));
      }
    }
  }
  if (pmsim::LockCheck* locks = runtime.device().lockcheck(); locks != nullptr) {
    result.lockcheck = locks->Snapshot();
    if (!result.trace_dump_path.empty()) {
      AppendLockCheckSection(result.trace_dump_path, result.lockcheck);
    }
    std::fprintf(stderr,
                 "lockcheck[%s]: %llu violation(s), %llu informational, %llu suppressed, "
                 "%llu locks / %llu lines tracked\n",
                 label.c_str(), static_cast<unsigned long long>(result.lockcheck.total()),
                 static_cast<unsigned long long>(result.lockcheck.total_info()),
                 static_cast<unsigned long long>(result.lockcheck.total_suppressed()),
                 static_cast<unsigned long long>(result.lockcheck.locks_tracked),
                 static_cast<unsigned long long>(result.lockcheck.lines_tracked));
    for (int c = 0; c < pmsim::kNumLockCheckClasses; c++) {
      if (result.lockcheck.counts[static_cast<size_t>(c)] != 0) {
        std::fprintf(stderr, "lockcheck[%s]:   %-20s %llu\n", label.c_str(),
                     pmsim::LockCheckClassName(static_cast<pmsim::LockCheckClass>(c)),
                     static_cast<unsigned long long>(
                         result.lockcheck.counts[static_cast<size_t>(c)]));
      }
    }
  }
  return result;
}

}  // namespace cclbt::bench
