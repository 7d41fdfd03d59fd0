#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>

#include "probe_index.h"
#include "src/bench/index_factory.h"
#include "src/common/rng.h"
#include "src/core/ccl_btree.h"
#include "src/metrics/clock.h"
#include "src/metrics/metrics.h"
#include "src/service/service.h"

namespace perfbench {

namespace {

using cclbt::bench::RunConfig;
using cclbt::bench::RunResult;
using cclbt::core::CclBTree;
using cclbt::kvindex::KvIndex;
using cclbt::kvindex::Runtime;
using cclbt::metrics::Histogram;
using cclbt::pmsim::StatsSnapshot;
using cclbt::service::OpenLoopConfig;
using cclbt::service::ServiceConfig;
using cclbt::service::ServiceResult;
using cclbt::service::ShardedKvService;
using cclbt::trace::Component;
using XpBufferTotals = cclbt::pmsim::PmDevice::XpBufferTotals;

// Logical workers of the driver workloads: virtual-time contexts interleaved
// on one OS thread (RunConfig::os_parallel stays off, so runs are
// deterministic).
constexpr int kWorkers = 48;
// Recovery threads of every restart. One, because CclBTree::ReplayLogs runs
// more than one replay worker on real OS threads that share XPBuffer and DIMM
// state, which makes the modeled recovery time vary from run to run.
constexpr int kRecoveryThreads = 1;

// Sizes keep one trial to a few seconds of host time, so a run holds enough
// trials for a steady median of the host metrics; every PM working set still
// exceeds the XPBuffers and buffer-node slots by orders of magnitude.
constexpr uint64_t kIngestWarmKeys = 500'000;
constexpr uint64_t kIngestOps = 500'000;
constexpr uint64_t kZipfWarmKeys = 500'000;
constexpr uint64_t kZipfOps = 1'000'000;
constexpr uint64_t kServiceWarmKeys = 250'000;
constexpr uint64_t kServiceOps = 500'000;
// PM pool of every runtime: the data with ample headroom. PmDevice::Crash
// copies the whole pool, so its size sets most of restart_s.
constexpr size_t kPoolBytes = 512ULL << 20;
constexpr int kServiceShards = 4;
// Fixed offered load of service_poisson, Mop/s of virtual time (about 85%
// of the closed-loop capacity of this configuration).
constexpr double kServiceOfferedMops = 6.0;

// read_zipf: 78% lookups and 2% scans; the remaining 20% are updates of
// Zipfian (mostly hot) keys.
constexpr cclbt::YcsbMix kReadZipfMix{"read-zipf", 0, 78, 2};

uint64_t Now() { return cclbt::metrics::WallNowNs(); }

cclbt::kvindex::RuntimeOptions PoolOptions() {
  cclbt::kvindex::RuntimeOptions options;
  options.device.pool_bytes = kPoolBytes;
  return options;
}
double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double Mb(uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }
double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

// Cumulative CCL-BTree counters, summed over trees.
struct TreeCounters {
  uint64_t dram_hits = 0;
  uint64_t buffer_flushes = 0;
  uint64_t splits = 0;
  uint64_t merges = 0;
  uint64_t gc_rounds = 0;
  uint64_t log_peak_bytes = 0;

  void Add(const CclBTree& tree) {
    dram_hits += tree.dram_hits();
    buffer_flushes += tree.buffer_flushes();
    splits += tree.splits();
    merges += tree.merges();
    gc_rounds += tree.gc_rounds();
    log_peak_bytes += tree.log_peak_bytes();
  }

  // Work done since `start`; the log peak stays a whole-life peak.
  TreeCounters Since(const TreeCounters& start) const {
    TreeCounters d = *this;
    d.dram_hits -= start.dram_hits;
    d.buffer_flushes -= start.buffer_flushes;
    d.splits -= start.splits;
    d.merges -= start.merges;
    d.gc_rounds -= start.gc_rounds;
    return d;
  }
};

TreeCounters CountersOf(const CclBTree& tree) {
  TreeCounters c;
  c.Add(tree);
  return c;
}

TreeCounters CountersOf(ShardedKvService& svc) {
  TreeCounters c;
  for (int s = 0; s < svc.shards(); s++) {
    c.Add(dynamic_cast<const CclBTree&>(svc.shard_index(s)));
  }
  return c;
}

// Last value written to every key. Keys keep their first-write order, so the
// post-recovery check reads them in the same order on every run.
class ExpectedState {
 public:
  explicit ExpectedState(size_t keys) {
    values_.reserve(keys);
    order_.reserve(keys);
  }

  void Put(uint64_t key, uint64_t value) {
    auto [it, fresh] = values_.try_emplace(key, value);
    if (fresh) {
      order_.push_back(key);
    } else {
      it->second = value;
    }
  }

  const uint64_t* Find(uint64_t key) const {
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  const std::vector<uint64_t>& keys() const { return order_; }
  uint64_t value(uint64_t key) const { return values_.at(key); }

 private:
  std::unordered_map<uint64_t, uint64_t> values_;
  std::vector<uint64_t> order_;
};

struct Restart {
  uint64_t crash_ns = 0;
  uint64_t reopen_ns = 0;
  uint64_t recover_ns = 0;
  // max(modeled recovery of the slowest tree, busiest DIMM), as fig17 reports.
  uint64_t modeled_ns = 0;
  uint64_t media_read_bytes = 0;
  uint64_t lost = 0;   // expected keys the recovered trees do not hold
  uint64_t stale = 0;  // expected keys holding another value
  Histogram lookup_ns;  // virtual latency of the verification lookups
};

// Simulated power failure and restart. Crashes the device, drops the
// pre-crash index (`drop_index`), reopens the pool, recovers the CCL-BTree of
// each root slot [0, slots) with kRecoveryThreads, checks the recovered
// trees' invariants and looks up every expected key in the tree of its slot
// (`key_slots`, aligned with expected.keys(); empty means slot 0).
Restart CrashAndRecover(Runtime& runtime, const std::function<void()>& drop_index, int slots,
                        const ExpectedState& expected, const std::vector<uint8_t>& key_slots,
                        Report& report) {
  Restart r;
  const uint64_t t0 = Now();
  runtime.device().Crash();
  drop_index();
  const uint64_t t1 = Now();
  std::string error;
  bool reopened = runtime.Reopen(&error);
  const uint64_t t2 = Now();
  report.Check(reopened, "reopen after crash: " + error);
  if (!reopened) {
    return r;
  }
  runtime.device().ResetCosts();
  std::vector<std::unique_ptr<KvIndex>> trees;
  uint64_t modeled_ns = 0;
  for (int s = 0; s < slots; s++) {
    cclbt::bench::IndexConfig config;
    config.tree.root_slot = s;
    trees.push_back(cclbt::bench::RecoverIndex("cclbtree", runtime, config, kRecoveryThreads));
    report.Check(trees.back() != nullptr, "recovery of root slot " + std::to_string(s));
    if (trees.back() == nullptr) {
      return r;
    }
    modeled_ns = std::max(modeled_ns, trees.back()->last_recovery_modeled_ns());
  }
  const uint64_t t3 = Now();
  r.crash_ns = t1 - t0;
  r.reopen_ns = t2 - t1;
  r.recover_ns = t3 - t2;
  r.modeled_ns = std::max(modeled_ns, runtime.device().MaxDimmBusyNs());
  r.media_read_bytes = runtime.device().stats().Snapshot().media_read_bytes;

  cclbt::pmsim::ThreadContext ctx(runtime.device(), /*socket=*/0, /*worker_id=*/0);
  for (int s = 0; s < slots; s++) {
    report.Check(dynamic_cast<const CclBTree&>(*trees[static_cast<size_t>(s)]).CheckInvariants(),
                 "invariants of recovered tree " + std::to_string(s));
  }
  const std::vector<uint64_t>& keys = expected.keys();
  for (size_t i = 0; i < keys.size(); i++) {
    KvIndex& tree = *trees[key_slots.empty() ? 0 : key_slots[i]];
    uint64_t got = 0;
    uint64_t t = ctx.now_ns();
    bool found = tree.Lookup(keys[i], &got);
    r.lookup_ns.Record(ctx.now_ns() - t);
    r.lost += found ? 0 : 1;
    r.stale += found && got != expected.value(keys[i]) ? 1 : 0;
  }
  report.Count(keys.size(), r.lost + r.stale);
  return r;
}

// Smallest r in [lo, hi) with pred(r), or hi; pred must be monotone.
template <typename Pred>
uint64_t FirstRank(uint64_t lo, uint64_t hi, Pred pred) {
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Percentile `p` of `h`, interpolated by rank inside the histogram bucket
// that holds it. Histogram::Percentile reports the bucket's upper bound, so a
// latency that sits on one cost-model value would read the same for every
// seed; interpolation keeps the bucket's precision (<= 3.2%) and follows the
// counts. Histogram exposes no bucket counts, so the bucket's rank range is
// found by bisection over Percentile(), which reads rank floor(p/100 * n).
double InterpolatedPercentile(const Histogram& h, double p) {
  const uint64_t n = h.Count();
  if (n == 0) {
    return 0;
  }
  auto bucket_of = [&](uint64_t rank) {
    double q = (static_cast<double>(rank) + 0.5) * 100.0 / static_cast<double>(n);
    return Histogram::BucketFor(h.Percentile(q));
  };
  const uint64_t rank = std::min(static_cast<uint64_t>(p / 100.0 * static_cast<double>(n)), n - 1);
  const int bucket = bucket_of(rank);
  const uint64_t first = FirstRank(0, rank, [&](uint64_t r) { return bucket_of(r) >= bucket; });
  const uint64_t end = FirstRank(rank, n, [&](uint64_t r) { return bucket_of(r) > bucket; });
  double lower = bucket == 0 ? 0.0 : static_cast<double>(Histogram::BucketUpperBound(bucket - 1));
  double upper = static_cast<double>(Histogram::BucketUpperBound(bucket));
  lower = std::max(lower, static_cast<double>(h.Min()));
  upper = std::min(upper, static_cast<double>(h.Max()));
  return lower + (upper - lower) * static_cast<double>(rank - first + 1) /
                     static_cast<double>(end - first);
}

void EmitPercentiles(Report& report, const std::string& prefix, const Histogram& h) {
  report.Virtual(prefix + "_p50_us", InterpolatedPercentile(h, 50) / 1e3, "us");
  report.Virtual(prefix + "_p999_us", InterpolatedPercentile(h, 99.9) / 1e3, "us");
}

// Virtual latency of the measured operations: mean and tail over all of them
// and the upsert tail (end to end), and each kind's percentiles (per layer).
void EmitLatencies(Report& report, const Histogram& upserts, const Histogram& lookups,
                   const Histogram& scans) {
  Histogram all = upserts;
  all.Merge(lookups);
  all.Merge(scans);
  report.Virtual("latency_mean_us", all.Mean() / 1e3, "us");
  report.Virtual("latency_p999_us", InterpolatedPercentile(all, 99.9) / 1e3, "us");
  report.Virtual("upsert_p999_us", InterpolatedPercentile(upserts, 99.9) / 1e3, "us");
  EmitPercentiles(report, "latency.upsert", upserts);
  EmitPercentiles(report, "latency.lookup", lookups);
  EmitPercentiles(report, "latency.scan", scans);
}

void EmitRestart(Report& report, const Restart& r) {
  report.Virtual("recovery_ms", static_cast<double>(r.modeled_ns) / 1e6, "ms");
  report.Host("restart_s", Seconds(r.crash_ns + r.reopen_ns + r.recover_ns), "s");
  report.Host("recovery.crash_s", Seconds(r.crash_ns), "s");
  report.Host("recovery.reopen_s", Seconds(r.reopen_ns), "s");
  report.Host("recovery.recover_s", Seconds(r.recover_ns), "s");
  report.Virtual("recovery.media_read_bytes", static_cast<double>(r.media_read_bytes), "B");
  EmitPercentiles(report, "recovery.lookup", r.lookup_ns);
  report.Virtual("recovery.lost_acked", static_cast<double>(r.lost), "count");
  report.Virtual("recovery.stale_values", static_cast<double>(r.stale), "count");
}

// Work of the CCL-BTree layers and of pmsim over one measured phase of `ops`
// operations (`upserts` and `lookups` of them).
struct Work {
  TreeCounters tree;
  StatsSnapshot stats;
  uint64_t ops = 0;
  uint64_t upserts = 0;
  uint64_t lookups = 0;
  uint64_t xpbuffer_evictions = 0;
  double dimm_bound_share = 0;  // busiest DIMM's media work / modeled elapsed time
};

void EmitWork(Report& report, const Work& w) {
  const auto ops = static_cast<double>(w.ops);
  const auto upserts = static_cast<double>(w.upserts);
  report.Virtual("buffernode.absorb_ratio",
                 w.upserts == 0 ? 0.0 : 1.0 - Ratio(w.tree.buffer_flushes, upserts), "ratio");
  report.Virtual("buffernode.read_hit_ratio", Ratio(w.tree.dram_hits, w.lookups), "ratio");
  for (Component c : {Component::kLeaf, Component::kWal, Component::kGc}) {
    std::string p = cclbt::trace::ComponentName(c);
    report.Virtual(p + ".media_write_bytes_per_upsert",
                   Ratio(w.stats.media_write_bytes_for(c), upserts), "B/upsert");
    report.Virtual(p + ".committed_lines_per_upsert",
                   Ratio(w.stats.committed_lines_by_component[static_cast<int>(c)], upserts),
                   "lines/upsert");
  }
  report.Virtual("leaf.splits", static_cast<double>(w.tree.splits), "count");
  report.Virtual("leaf.merges", static_cast<double>(w.tree.merges), "count");
  report.Virtual("gc.rounds", static_cast<double>(w.tree.gc_rounds), "count");
  report.Virtual("gc.log_peak_mb", Mb(w.tree.log_peak_bytes), "MB");
  uint64_t committed = 0;
  for (uint64_t lines : w.stats.committed_lines_by_component) {
    committed += lines;
  }
  report.Virtual("pmsim.line_flushes_per_op", Ratio(w.stats.line_flushes, ops), "1/op");
  report.Virtual("pmsim.fences_per_op", Ratio(w.stats.fences, ops), "1/op");
  report.Virtual("pmsim.media_write_bytes_per_op", Ratio(w.stats.media_write_bytes, ops), "B/op");
  report.Virtual("pmsim.media_read_bytes_per_op", Ratio(w.stats.media_read_bytes, ops), "B/op");
  report.Virtual("pmsim.xpbuffer_evictions_per_op", Ratio(w.xpbuffer_evictions, ops), "1/op");
  report.Virtual("pmsim.pm_read_hit_ratio", Ratio(w.stats.pm_read_hits, w.stats.pm_reads), "ratio");
  report.Virtual("pmsim.remote_access_ratio",
                 Ratio(w.stats.remote_accesses, w.stats.pm_reads + committed), "ratio");
  report.Virtual("pmsim.dimm_bound_share", w.dimm_bound_share, "ratio");
}

}  // namespace

RunConfig DriverConfig(const std::string& workload, uint64_t seed) {
  RunConfig config;
  config.threads = kWorkers;
  config.seed = seed;
  if (workload == "ingest_uniform") {
    config.warm_keys = kIngestWarmKeys;
    config.ops = kIngestOps;
    config.op = cclbt::OpType::kInsert;
    config.dist = cclbt::KeyDistribution::kUniform;
  } else {
    config.warm_keys = kZipfWarmKeys;
    config.ops = kZipfOps;
    config.mix = &kReadZipfMix;
    config.dist = cclbt::KeyDistribution::kZipfian;
    config.zipf_theta = 0.9;
    config.scan_len = 100;
  }
  return config;
}

namespace {

// ingest_uniform and read_zipf: bench::RunWorkload through a ProbeIndex on
// one CCL-BTree, then a crash and recovery.
Report RunDriverTrial(const Trial& trial) {
  Report report;
  RunConfig config = DriverConfig(trial.workload, trial.seed);
  config.collect_component_latency = trial.traced;

  const uint64_t t0 = Now();
  auto runtime = std::make_unique<Runtime>(PoolOptions());
  auto tree = std::make_unique<CclBTree>(*runtime, cclbt::core::TreeOptions{});
  std::vector<uint64_t> keys;
  if (config.dist == cclbt::KeyDistribution::kUniform) {
    // The driver's own uniform insert stream ignores RunConfig::seed; a
    // preset key set makes the inserted keys a function of the seed.
    keys = SeededKeys(config.warm_keys + config.ops, trial.seed);
    config.preset_keys = &keys;
  }
  TreeCounters tree_start;
  XpBufferTotals xpbuffer_start{};
  ProbeIndex::Options options;
  options.warm_calls = config.warm_keys;
  options.wall_per_call = trial.traced;
  options.on_measure_start = [&] {
    tree_start = CountersOf(*tree);
    xpbuffer_start = runtime->device().SampleXpBuffers();
  };
  ProbeIndex probe(*tree, options);
  probe.reserve_log(config.warm_keys + config.ops);
  RunResult run = cclbt::bench::RunWorkload(*runtime, probe, config);
  const uint64_t t_end = Now();

  Work work;
  work.tree = CountersOf(*tree).Since(tree_start);
  work.stats = run.stats;
  work.ops = config.ops;
  work.upserts = probe.measured_calls(kUpsertCall);
  work.lookups = probe.measured_calls(kLookupCall);
  work.xpbuffer_evictions =
      runtime->device().SampleXpBuffers().evictions - xpbuffer_start.evictions;
  work.dimm_bound_share = Ratio(run.max_dimm_busy_ms, run.elapsed_virtual_ms);
  report.Check(probe.calls() == config.warm_keys + config.ops,
               "driver made warm_keys + ops index calls");
  report.Check(probe.measured_calls() == config.ops, "measured calls == ops");
  report.Check(tree->CheckInvariants(), "tree invariants after the measured phase");

  // Replay the log: every measured lookup must return the last value written.
  ExpectedState expected(config.warm_keys + config.ops);
  uint64_t bad_reads = 0;
  for (const LoggedOp& op : probe.log()) {
    if (!op.lookup) {
      expected.Put(op.key, op.value);
      continue;
    }
    const uint64_t* want = expected.Find(op.key);
    bad_reads += op.found && want != nullptr && *want == op.value ? 0 : 1;
  }
  report.Count(config.ops, bad_reads + probe.bad_scans());

  Restart restart = CrashAndRecover(
      *runtime, [&] { tree.reset(); }, 1, expected, {}, report);

  const uint64_t measured_ns = t_end - probe.measure_start_ns();
  const auto ops = static_cast<double>(config.ops);
  report.Virtual("throughput_mops", run.mops, "Mop/s");
  // Closed loop: the achieved throughput is the capacity.
  report.Virtual("capacity_mops", run.mops, "Mop/s");
  report.Virtual("xbi", run.xbi_amplification, "B/B");
  report.Virtual("cli", run.cli_amplification, "B/B");
  EmitLatencies(report, probe.virtual_ns(kUpsertCall), probe.virtual_ns(kLookupCall),
                probe.virtual_ns(kScanCall));
  report.Virtual("pm_mb", Mb(run.footprint.pm_bytes), "MB");
  report.Virtual("dram_mb", Mb(run.footprint.dram_bytes), "MB");
  report.Host("host_ns_per_op", static_cast<double>(measured_ns) / ops, "ns");
  report.Host("setup_s", Seconds(probe.measure_start_ns() - t0), "s");
  EmitRestart(report, restart);

  report.Host("driver.warm_s", Seconds(probe.warm_end_ns() - probe.warm_start_ns()), "s");
  report.Host("driver.worker_setup_s", Seconds(probe.measure_start_ns() - probe.warm_end_ns()),
              "s");
  for (int k = 0; k < kNumCallKinds; k++) {
    std::string p = std::string("index.") + CallKindName(k);
    report.Virtual(p + ".calls", static_cast<double>(probe.measured_calls(k)), "count");
    if (trial.traced) {
      report.Host(p + ".host_ns_p50", static_cast<double>(probe.host_ns(k).Percentile(50)), "ns");
      report.Host(p + ".host_ns_p999", static_cast<double>(probe.host_ns(k).Percentile(99.9)),
                  "ns");
    }
  }
  report.Virtual("index.lookup.miss_ratio", Ratio(probe.lookup_misses(), work.lookups), "ratio");
  if (trial.traced) {
    report.Host("driver.self_ns_per_op",
                static_cast<double>(measured_ns - probe.host_ns_in_index()) / ops, "ns");
    // kOther is virtual time outside every component scope: inner descent,
    // buffer-node probes and lookup PM reads open no scope of their own.
    for (Component c : {Component::kOther, Component::kLeaf, Component::kWal, Component::kGc}) {
      report.Virtual(std::string(cclbt::trace::ComponentName(c)) + ".vns_per_op",
                     static_cast<double>(run.component_latency[static_cast<size_t>(c)].Sum()) / ops,
                     "ns");
    }
  }
  EmitWork(report, work);
  return report;
}

ServiceConfig ServiceSetup(bool track_acked) {
  ServiceConfig config;
  config.shards = kServiceShards;
  config.partition = cclbt::service::Partition::kHash;
  config.queue_capacity = 64;
  config.batch_ops = 8;
  config.label = "service_poisson";
  config.track_acked = track_acked;
  return config;
}

OpenLoopConfig ServiceLoad(uint64_t seed, double offered_mops) {
  OpenLoopConfig load;
  load.ops = kServiceOps;
  load.warm_keys = kServiceWarmKeys;
  load.offered_mops = offered_mops;
  load.process = cclbt::service::ArrivalProcess::kPoisson;
  load.mix = &cclbt::kYcsbInsertIntensive;
  load.dist = cclbt::KeyDistribution::kUniform;
  load.seed = seed;
  return load;
}

// service_poisson: open loop at a fixed rate through ShardedKvService, a
// crash and recovery of every shard, then a closed-loop capacity probe on a
// fresh runtime.
Report RunServiceTrial(const Trial& trial) {
  Report report;
  const OpenLoopConfig load = ServiceLoad(trial.seed, kServiceOfferedMops);

  const uint64_t t0 = Now();
  auto runtime = std::make_unique<Runtime>(PoolOptions());
  auto svc = std::make_unique<ShardedKvService>(*runtime, ServiceSetup(/*track_acked=*/true));
  const uint64_t t_warm = Now();
  svc->Warm(load);
  const uint64_t t_run = Now();
  const TreeCounters tree_start = CountersOf(*svc);
  const XpBufferTotals xpbuffer_start = runtime->device().SampleXpBuffers();
  const ServiceResult result = svc->Run(load);
  const uint64_t t_end = Now();

  const Histogram& upserts = result.metrics_snapshot.virt(cclbt::metrics::OpKind::kUpsert);
  const Histogram& lookups = result.metrics_snapshot.virt(cclbt::metrics::OpKind::kLookup);
  Work work;
  work.tree = CountersOf(*svc).Since(tree_start);
  work.stats = result.stats;
  work.ops = result.completed;
  work.upserts = upserts.Count();
  work.lookups = lookups.Count();
  work.xpbuffer_evictions =
      runtime->device().SampleXpBuffers().evictions - xpbuffer_start.evictions;
  work.dimm_bound_share = Ratio(static_cast<double>(runtime->device().MaxDimmBusyNs()) / 1e6,
                                result.elapsed_virtual_ms);
  cclbt::kvindex::MemoryFootprint footprint;
  uint64_t batches = 0;
  uint64_t max_queue_depth = 0;
  for (int s = 0; s < svc->shards(); s++) {
    cclbt::kvindex::MemoryFootprint f = svc->shard_index(s).Footprint();
    footprint.pm_bytes += f.pm_bytes;
    footprint.dram_bytes += f.dram_bytes;
    report.Check(dynamic_cast<const CclBTree&>(svc->shard_index(s)).CheckInvariants(),
                 "invariants of shard " + std::to_string(s));
    const cclbt::service::ShardStats& shard = result.shards[static_cast<size_t>(s)];
    batches += shard.batches;
    max_queue_depth = std::max(max_queue_depth, shard.max_queue_depth);
  }
  report.Check(result.offered == load.ops, "offered == requests generated");
  report.Check(result.admitted + result.shed == result.offered, "admitted + shed == offered");
  report.Check(result.completed == result.admitted, "completed == admitted");
  // In-flight results are not visible outside the service; acknowledged
  // writes are checked after the restart. Shed requests are admission
  // control doing its job, not wrong results: they lower the throughput.
  report.Count(result.offered, 0);

  // After the restart every warm key and every acknowledged write must read
  // back with its last acknowledged value.
  ExpectedState expected(load.warm_keys + load.ops);
  for (uint64_t i = 0; i < load.warm_keys; i++) {
    expected.Put(cclbt::service::ServiceWarmKey(i), cclbt::service::ServiceValue(i));
  }
  for (const auto& [key, value] : svc->acked()) {
    expected.Put(key, value);
  }
  std::vector<uint8_t> key_slots;
  key_slots.reserve(expected.keys().size());
  for (uint64_t key : expected.keys()) {
    key_slots.push_back(static_cast<uint8_t>(svc->ShardOf(key)));
  }
  Restart restart = CrashAndRecover(
      *runtime, [&] { svc.reset(); }, kServiceShards, expected, key_slots, report);
  runtime.reset();

  const uint64_t t_probe = Now();
  double capacity_mops = 0;
  {
    Runtime probe_runtime(PoolOptions());
    ShardedKvService probe(probe_runtime, ServiceSetup(/*track_acked=*/false));
    const OpenLoopConfig closed = ServiceLoad(trial.seed, /*offered_mops=*/0);
    probe.Warm(closed);
    capacity_mops = probe.Run(closed).achieved_mops;
  }
  const uint64_t t_probe_end = Now();

  report.Virtual("throughput_mops", result.achieved_mops, "Mop/s");
  report.Virtual("capacity_mops", capacity_mops, "Mop/s");
  report.Virtual("xbi", result.xbi_amplification, "B/B");
  report.Virtual("cli", result.cli_amplification, "B/B");
  EmitLatencies(report, upserts, lookups,
                result.metrics_snapshot.virt(cclbt::metrics::OpKind::kScan));
  report.Virtual("pm_mb", Mb(footprint.pm_bytes), "MB");
  report.Virtual("dram_mb", Mb(footprint.dram_bytes), "MB");
  report.Host("host_ns_per_op",
              static_cast<double>(t_end - t_run) / static_cast<double>(result.offered), "ns");
  report.Host("setup_s", Seconds(t_run - t0), "s");
  EmitRestart(report, restart);

  report.Host("service.warm_s", Seconds(t_run - t_warm), "s");
  report.Host("service.run_s", Seconds(t_end - t_run), "s");
  report.Host("service.probe_s", Seconds(t_probe_end - t_probe), "s");
  report.Virtual("service.offered", static_cast<double>(result.offered), "count");
  report.Virtual("service.admitted", static_cast<double>(result.admitted), "count");
  report.Virtual("service.shed", static_cast<double>(result.shed), "count");
  report.Virtual("service.completed", static_cast<double>(result.completed), "count");
  report.Virtual("service.mean_batch_ops", Ratio(result.completed, batches), "1/batch");
  report.Virtual("service.max_queue_depth", static_cast<double>(max_queue_depth), "count");
  EmitWork(report, work);
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ingest_uniform", "read_zipf", "service_poisson"};
  return names;
}

std::vector<uint64_t> SeededKeys(uint64_t count, uint64_t seed) {
  // Mix64 is a bijection, so distinct positions give distinct keys up to the
  // forced low bit, which the driver's own WarmKey also sets.
  const uint64_t salt = cclbt::Mix64(seed ^ 0x6b65797365656473ULL);
  std::vector<uint64_t> keys(count);
  for (uint64_t i = 0; i < count; i++) {
    keys[i] = cclbt::Mix64(i ^ salt) | 1;
  }
  return keys;
}

Report RunTrial(const Trial& trial) {
  Report report =
      trial.workload == "service_poisson" ? RunServiceTrial(trial) : RunDriverTrial(trial);
  report.Host("peak_rss_mb", PeakRssMb(), "MB");
  return report;
}

}  // namespace perfbench
