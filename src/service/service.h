// Sharded KV service front-end over kvindex (DESIGN.md §15).
//
// N shards partition the key space (hash or range); each shard owns one
// index instance in the shared Runtime pool (CCL-BTree shard i persists its
// root in pool app-root slot i via TreeOptions::root_slot) and one
// pmsim::ThreadContext pinned to a socket by Runtime::SocketForWorker — so a
// 2-socket device config spreads shards round-robin across sockets and
// shard-local PM traffic queues on that socket's DIMMs.
//
// Request flow (all in virtual time, single OS thread, deterministic):
//   arrival (open-loop generator) -> admission control -> per-shard bounded
//   FIFO -> group-commit batch of `batch_ops` requests -> index ops on the
//   shard's context -> ack (latency = batch completion - arrival).
// The measured phase around that flow — bracket, epoch series, .pmmetrics
// dump, op execution — is the MeasuredPhase the closed-loop driver runs too
// (src/bench/measured_phase.h); the service keeps its own event loop.
//
// Admission control sheds a request at its arrival instant when the target
// shard's queue already holds `queue_capacity` requests — the service
// degrades by rejecting early instead of growing unbounded queues, so tail
// latency of *admitted* requests stays bounded past saturation while the
// shed rate reports the overload.
//
// Group commit: a shard serves up to `batch_ops` queued requests as one
// batch and acks all of them at the batch's completion time. Batching feeds
// CCL-BTree's buffer nodes bursts that amortize leaf flushes (paper §3.2);
// the cost is added queueing delay for the batch's early requests, which is
// exactly the tradeoff bench_service_tail measures.
//
// Determinism: the event loop interleaves arrivals and batch completions in
// global virtual-time order (ties broken by lowest shard id), so two runs of
// the same config produce bit-identical epoch series, shed counts and
// latency histograms.
#ifndef SRC_SERVICE_SERVICE_H_
#define SRC_SERVICE_SERVICE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/bench/index_factory.h"
#include "src/bench/measured_phase.h"
#include "src/kvindex/kv_index.h"
#include "src/kvindex/runtime.h"
#include "src/service/workload.h"

namespace cclbt::service {

enum class Partition : uint8_t {
  kHash,   // scrambled-key modulo: uniform shard load for any key pattern
  kRange,  // contiguous key ranges: preserves cross-shard scan locality
};

struct ServiceConfig {
  int shards = 2;
  Partition partition = Partition::kHash;
  // Index type per shard (index_factory names). Only "cclbtree" supports
  // multi-shard recovery (per-shard app-root slots); other types work as
  // volatile shards.
  std::string index = "cclbtree";
  bench::IndexConfig index_config;  // per-shard; root_slot is overridden to the shard id
  // Admission watermark: arrivals finding this many requests queued at their
  // shard are shed.
  size_t queue_capacity = 64;
  // Group-commit batch size (requests acked together; a multiple of the
  // tree's nbatch keeps buffer-node slots full).
  size_t batch_ops = 8;
  size_t scan_len = 16;
  std::string label = "service";
  // Record the last acked value per key (crash tests verify no acked update
  // is lost across shard queues). Off by default: it is DRAM bookkeeping the
  // measured path does not need.
  bool track_acked = false;
};

struct ShardStats {
  int socket = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;
  uint64_t batches = 0;
  uint64_t max_queue_depth = 0;
  uint64_t final_vtime_ns = 0;
};

// Measured-phase results (PhaseResult; its latency histograms span arrival
// -> group-commit ack of each admitted request) plus the service's own.
struct ServiceResult : bench::PhaseResult {
  uint64_t offered = 0;    // requests the generator produced
  uint64_t admitted = 0;   // passed admission control
  uint64_t shed = 0;       // rejected at arrival
  uint64_t completed = 0;  // acked (== admitted once the queues drain)
  double shed_rate = 0;    // shed / offered
  double offered_mops = 0;
  double achieved_mops = 0;  // completed / elapsed
  std::vector<ShardStats> shards;
};

class ShardedKvService {
 public:
  // Creates the shard indexes and pinned contexts in `runtime`'s pool.
  // The runtime outlives the service.
  ShardedKvService(kvindex::Runtime& runtime, const ServiceConfig& config);
  ~ShardedKvService();

  ShardedKvService(const ShardedKvService&) = delete;
  ShardedKvService& operator=(const ShardedKvService&) = delete;

  // Closed-loop warm fill: upserts keys [0, warm_keys) of `workload`'s key
  // space directly into their shards (no queueing), then resets device cost
  // accounting so Run() measures only the open-loop phase.
  void Warm(const OpenLoopConfig& workload);

  // Drives the arrival stream through the service to completion.
  // workload.offered_mops <= 0 selects closed-loop mode: every request is
  // available the moment its shard is free (no queueing delay, no shedding),
  // which measures saturation capacity — benches probe capacity this way,
  // then place open-loop sweep points below/at/beyond it.
  ServiceResult Run(const OpenLoopConfig& workload);

  int ShardOf(uint64_t key) const;
  int shards() const { return config_.shards; }
  int shard_socket(int s) const;
  kvindex::KvIndex& shard_index(int s) { return *trees_[static_cast<size_t>(s)]; }
  // Last acked value per key (track_acked only); value 0 records an acked
  // delete. std::map so iteration order is deterministic.
  const std::map<uint64_t, uint64_t>& acked() const { return acked_; }

 private:
  struct Shard;

  // Serves one group-commit batch on shard `s`, starting at virtual time
  // `start_ns` (>= the shard clock; the gap is modeled idle waiting).
  void ServeBatch(int s, uint64_t start_ns, bool closed_loop);

  // Epoch gauges: each shard's queue depth at the epoch instant and its
  // cumulative sheds, plus the shard index's own gauges, name-prefixed by
  // shard ("s0_queue_depth", "s0_gc_rounds", ...).
  void SampleGauges(bench::MeasuredPhase::Gauges* out) const;

  kvindex::Runtime& rt_;
  ServiceConfig config_;
  std::vector<std::unique_ptr<kvindex::KvIndex>> trees_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<uint64_t, uint64_t> acked_;
  std::vector<kvindex::KeyValue> scan_out_;
};

}  // namespace cclbt::service

#endif  // SRC_SERVICE_SERVICE_H_
