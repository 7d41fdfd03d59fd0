#include "src/bench/driver.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <optional>

#include "src/bench/measured_phase.h"
#include "src/common/rng.h"
#include "src/common/zipfian.h"
#include "src/metrics/clock.h"
#include "src/pmem/value_store.h"
#include "src/pmsim/virtual_workers.h"
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

// Ops per scheduling slice: small enough to bound virtual-clock skew between
// workers to a few microseconds.
constexpr uint64_t kSliceOps = 1;

// Prints a checker's stderr summary: totals and counters, then each class
// with violations.
template <typename Report>
void ReportChecker(const Report& report, const std::string& label) {
  if (!report.enabled) {
    return;
  }
  std::fprintf(stderr, "%s[%s]: %llu violation(s), %llu informational, %llu suppressed",
               report.checker, label.c_str(), static_cast<unsigned long long>(report.total()),
               static_cast<unsigned long long>(report.total_info()),
               static_cast<unsigned long long>(report.total_suppressed()));
  for (const auto& [name, value] : report.stats) {
    std::fprintf(stderr, ", %s=%llu", name, static_cast<unsigned long long>(value));
  }
  std::fprintf(stderr, "\n");
  for (size_t c = 0; c < Report::kNumClasses; c++) {
    if (report.counts[c] != 0) {
      std::fprintf(stderr, "%s[%s]:   %-20s %llu\n", report.checker, label.c_str(),
                   pmsim::CheckClassName(static_cast<typename Report::Class>(c)),
                   static_cast<unsigned long long>(report.counts[c]));
    }
  }
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
  // Fill-first at the paper's 48 cores per socket, unless the device sets
  // its own core count.
  auto socket_of = [&](int w) { return runtime.SocketForWorker(w, /*default_per_socket=*/48); };
  if (config.preset_keys != nullptr) {
    assert(config.preset_keys->size() >= config.warm_keys + config.ops);
  }

  KeyBlobModel key_blobs;

  // --- warm-up phase -----------------------------------------------------------
  {
    pmsim::VirtualWorkers workers(runtime.device(), config.threads, socket_of);
    uint64_t per_thread = config.warm_keys / static_cast<uint64_t>(config.threads);
    std::vector<uint64_t> cursor(static_cast<size_t>(config.threads));
    std::vector<uint64_t> limit(static_cast<size_t>(config.threads));
    for (int w = 0; w < config.threads; w++) {
      cursor[static_cast<size_t>(w)] = static_cast<uint64_t>(w) * per_thread;
      limit[static_cast<size_t>(w)] =
          w + 1 == config.threads ? config.warm_keys : cursor[static_cast<size_t>(w)] + per_thread;
    }
    workers.Run([&](int w) {
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
  if (config.collect_component_latency) {
    trace::SetScopeTiming(true);
  }
  // Op histograms, epoch series and tracing: measurement phase only,
  // CPU-side by construction, so enabling them cannot move a virtual metric.
  MeasuredPhase phase(runtime.device(), config.metrics, config.ops > 0,
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
    // Whole-op latency goes through MeasuredPhase::RecordOp instead.
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
      phase.RecordOp(kind, ctx->now_ns() - t0, metrics::WallNowNs() - wall0);
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

  {
    pmsim::VirtualWorkers workers(runtime.device(), config.threads, socket_of);
    workers.Run([&](int w) {
      WorkerState& st = states[static_cast<size_t>(w)];
      uint64_t end = std::min(st.limit, st.cursor + kSliceOps);
      for (; st.cursor < end; st.cursor++) {
        run_one(st, st.cursor);
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
  // The frontier is the slowest worker's end, not the largest clock now:
  // naive GC's RaiseContextClocks can advance a finished worker's clock.
  uint64_t worker_ns = 0;
  for (const auto& st : states) {
    worker_ns = std::max(worker_ns, st.final_vtime);
  }
  const std::string label = config.label.empty() ? "run" : config.label;
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
  if (config.collect_component_latency) {
    trace::SetScopeTiming(false);
  }
  return result;
}

RunResult RunIndexWorkload(const std::string& index_name, const RunConfig& config,
                           const IndexConfig& index_config, pmsim::DeviceConfig device) {
  kvindex::Runtime runtime({.device = device});
  auto index = MakeIndex(index_name, runtime, index_config);
  const std::string label = config.label.empty() ? index_name : config.label;
  RunConfig labeled = config;
  labeled.label = label;
  RunResult result = RunWorkload(runtime, *index, labeled);
  if (pmsim::PmCheck* check = runtime.device().pmcheck(); check != nullptr) {
    // The runtime is torn down on return, so this is the pool close from the
    // checker's point of view: run the unflushed-at-close scan and take the
    // final report, whose dump record supersedes the phase's. Happens after
    // the metric snapshot above — media traffic drained here never reaches
    // the returned stats, and no virtual time is charged (determinism
    // contract, DESIGN.md §10).
    runtime.device().DrainBuffers();
    result.pmcheck = check->Snapshot();
    if (!result.metrics_dump_path.empty()) {
      AppendCheckerRecord(result.metrics_dump_path, result.pmcheck);
    }
  }
  ReportChecker(result.pmcheck, label);
  ReportChecker(result.lockcheck, label);
  return result;
}

}  // namespace cclbt::bench
