#include "src/service/service.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "src/metrics/clock.h"
#include "src/pmsim/thread_context.h"

namespace cclbt::service {

namespace {

bool IsWrite(OpType op) {
  return op == OpType::kInsert || op == OpType::kUpdate || op == OpType::kDelete;
}

// 8 B key + 8 B inline value, the application-intent bytes of a write (the
// same accounting the closed-loop driver charges per upsert).
constexpr uint64_t kWriteUserBytes = 16;

}  // namespace

struct ShardedKvService::Shard {
  std::unique_ptr<pmsim::ThreadContext> ctx;
  std::deque<Request> queue;
  ShardStats stats;
};

ShardedKvService::ShardedKvService(kvindex::Runtime& runtime, const ServiceConfig& config)
    : rt_(runtime), config_(config), scan_out_(config.scan_len == 0 ? 1 : config.scan_len) {
  assert(config_.shards >= 1);
  trees_.reserve(static_cast<size_t>(config_.shards));
  shards_.reserve(static_cast<size_t>(config_.shards));
  for (int s = 0; s < config_.shards; s++) {
    auto shard = std::make_unique<Shard>();
    // The context constructor installs itself as current, so the index
    // created next charges its formatting traffic to its own shard.
    // worker_id = shard id keeps per-thread WAL slots distinct per tree.
    shard->ctx = std::make_unique<pmsim::ThreadContext>(rt_.device(), rt_.SocketForWorker(s), s);
    shard->stats.socket = shard->ctx->socket();
    bench::IndexConfig per_shard = config_.index_config;
    per_shard.tree.root_slot = s;  // shard i's persistent root -> app-root slot i
    trees_.push_back(bench::MakeIndex(config_.index, rt_, per_shard));
    shards_.push_back(std::move(shard));
  }
  pmsim::ThreadContext::SetCurrent(nullptr);
}

ShardedKvService::~ShardedKvService() = default;

int ShardedKvService::ShardOf(uint64_t key) const {
  auto n = static_cast<uint64_t>(config_.shards);
  if (config_.partition == Partition::kHash) {
    return static_cast<int>(Mix64(key ^ 0x5e55'1ce5'4a7dULL) % n);
  }
  // Range partition: shard = floor(key / (2^64 / n)) without overflow.
  return static_cast<int>((static_cast<unsigned __int128>(key) * n) >> 64);
}

int ShardedKvService::shard_socket(int s) const {
  return shards_[static_cast<size_t>(s)]->stats.socket;
}

void ShardedKvService::Warm(const OpenLoopConfig& workload) {
  for (uint64_t i = 0; i < workload.warm_keys; i++) {
    uint64_t key = ServiceWarmKey(i);
    int s = ShardOf(key);
    pmsim::ThreadContext::SetCurrent(shards_[static_cast<size_t>(s)]->ctx.get());
    trees_[static_cast<size_t>(s)]->Upsert(key, ServiceValue(i));
  }
  pmsim::ThreadContext::SetCurrent(nullptr);
  // Zero the cost model (stats + every registered virtual clock) so Run()
  // measures the open-loop phase alone, like the driver's measured phase.
  rt_.device().ResetCosts();
}

void ShardedKvService::ServeBatch(int s, uint64_t start_ns, bool closed_loop,
                                  bench::MeasuredPhase& phase) {
  Shard& sh = *shards_[static_cast<size_t>(s)];
  pmsim::ThreadContext* ctx = sh.ctx.get();
  pmsim::ThreadContext::SetCurrent(ctx);
  if (ctx->now_ns() < start_ns) {
    ctx->ResetClock(start_ns);  // shard was idle until the head request arrived
  }
  struct Served {
    Request req;
    metrics::OpKind kind;
    uint64_t wall_ns;
  };
  std::vector<Served> batch;
  batch.reserve(config_.batch_ops);
  // Only requests that have arrived by the batch start may ride in it (the
  // head always qualifies; later queue entries may still be in the future).
  while (batch.size() < config_.batch_ops && !sh.queue.empty() &&
         (closed_loop || sh.queue.front().arrival_ns <= start_ns)) {
    Request req = sh.queue.front();
    sh.queue.pop_front();
    uint64_t wall0 = metrics::WallNowNs();
    metrics::OpKind kind = bench::ExecuteOp(*trees_[static_cast<size_t>(s)], req.op, req.key,
                                            req.value, kWriteUserBytes, config_.scan_len,
                                            scan_out_.data());
    batch.push_back({req, kind, metrics::WallNowNs() - wall0});
  }
  // Group commit: every request in the batch is acked at the batch's
  // completion; an admitted request's latency spans arrival -> ack. In
  // closed-loop (capacity probe) mode arrivals are synthetic, so latency is
  // service-only (start -> ack).
  uint64_t done_ns = ctx->now_ns();
  for (const Served& sv : batch) {
    uint64_t arrival = closed_loop ? start_ns : sv.req.arrival_ns;
    phase.RecordOp(sv.kind, done_ns - arrival, sv.wall_ns);
    if (config_.track_acked && IsWrite(sv.req.op)) {
      acked_[sv.req.key] = sv.req.op == OpType::kDelete ? 0 : sv.req.value;
    }
  }
  sh.stats.completed += batch.size();
  sh.stats.batches++;
}

void ShardedKvService::SampleGauges(bench::MeasuredPhase::Gauges* out) const {
  for (int s = 0; s < config_.shards; s++) {
    const Shard& sh = *shards_[static_cast<size_t>(s)];
    std::string p = "s" + std::to_string(s) + "_";
    out->emplace_back(p + "queue_depth", sh.queue.size());
    out->emplace_back(p + "shed", sh.stats.shed);
    out->emplace_back(p + "admitted", sh.stats.admitted);
    out->emplace_back(p + "batches", sh.stats.batches);
    bench::MeasuredPhase::Gauges tree_gauges;
    trees_[static_cast<size_t>(s)]->SampleGauges(&tree_gauges);
    for (auto& [name, value] : tree_gauges) {
      out->emplace_back(p + name, value);
    }
  }
}

ServiceResult ShardedKvService::Run(const OpenLoopConfig& workload) {
  const bool closed_loop = workload.offered_mops <= 0;
  bench::MeasuredPhase phase(
      rt_.device(), /*metrics=*/true, /*epochs=*/true,
      [this](bench::MeasuredPhase::Gauges* gauges) { SampleGauges(gauges); });
  for (auto& sh : shards_) {
    ShardStats fresh;
    fresh.socket = sh->stats.socket;
    sh->stats = fresh;
    sh->queue.clear();
  }

  OpenLoopGenerator gen(workload);
  Request next;
  bool have_next = gen.Next(&next);
  uint64_t offered = 0;

  // Deterministic event loop: the next event is either the earliest pending
  // arrival (admission control runs at arrival time) or the earliest shard
  // batch start — min virtual time wins, lowest shard id breaks ties.
  while (true) {
    int best = -1;
    uint64_t best_t = UINT64_MAX;
    for (int s = 0; s < config_.shards; s++) {
      Shard& sh = *shards_[static_cast<size_t>(s)];
      if (sh.queue.empty()) {
        continue;
      }
      uint64_t t = std::max(sh.ctx->now_ns(),
                            closed_loop ? 0 : sh.queue.front().arrival_ns);
      if (t < best_t) {
        best_t = t;
        best = s;
      }
    }
    if (have_next && (best < 0 || next.arrival_ns <= best_t)) {
      offered++;
      Shard& sh = *shards_[static_cast<size_t>(ShardOf(next.key))];
      if (!closed_loop && sh.queue.size() >= config_.queue_capacity) {
        sh.stats.shed++;
      } else {
        sh.queue.push_back(next);
        sh.stats.max_queue_depth = std::max<uint64_t>(sh.stats.max_queue_depth, sh.queue.size());
        sh.stats.admitted++;
      }
      have_next = gen.Next(&next);
      continue;
    }
    if (best < 0) {
      break;  // stream exhausted and every queue drained
    }
    ServeBatch(best, best_t, closed_loop, phase);
    phase.Tick(shards_[static_cast<size_t>(best)]->ctx->now_ns());
  }
  pmsim::ThreadContext::SetCurrent(nullptr);

  ServiceResult result;
  result.offered = offered;
  uint64_t frontier_ns = 0;
  for (auto& sh : shards_) {
    sh->stats.final_vtime_ns = sh->ctx->now_ns();
    frontier_ns = std::max(frontier_ns, sh->stats.final_vtime_ns);
    result.admitted += sh->stats.admitted;
    result.shed += sh->stats.shed;
    result.completed += sh->stats.completed;
    result.shards.push_back(sh->stats);
  }
  uint64_t elapsed_ns = phase.Finish(frontier_ns, config_.label.empty() ? "service" : config_.label,
                                     static_cast<uint64_t>(config_.shards), workload.ops, &result);
  result.shed_rate =
      offered == 0 ? 0.0 : static_cast<double>(result.shed) / static_cast<double>(offered);
  result.offered_mops = workload.offered_mops;
  result.achieved_mops = elapsed_ns == 0 ? 0.0
                                         : static_cast<double>(result.completed) * 1e3 /
                                               static_cast<double>(elapsed_ns);
  return result;
}

}  // namespace cclbt::service
