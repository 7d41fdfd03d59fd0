// Hardware-counter equivalents of what the paper reads through ipmctl:
// bytes written to the XPBuffer (CLI numerator), bytes physically written to
// / read from the 3D-XPoint media (XBI numerator), NUMA traffic splits, plus
// their attribution to trace::Component (which subsystem's code wrote the
// bytes — see src/trace/component.h).
//
// Sharded design: the hot path (PmDevice::FlushLine/Fence/ReadPm) never
// performs an atomic RMW on shared cachelines. Each ThreadContext owns a
// cacheline-aligned StatsShard of single-writer counters; Stats keeps a
// registry of live shards plus a base shard. Snapshot() sums base + live
// shards; a context's shard is folded into the base when it unregisters.
//
// Field list: every counter is declared once, in CCLBT_PMSIM_STATS_FIELDS.
// Snapshot/shard declarations, Delta(), AccumulateInto(), StoreZero() and
// the fold in Stats::UnregisterShard() are all generated from that list, so
// adding a counter anywhere else cannot silently miscount — the
// static_asserts below fail the build if a member bypasses the list.
//
// Consistency contract: Snapshot() and Reset() return/establish an *exact*
// total only when no worker is concurrently mutating PM state (quiesced), as
// at phase boundaries in the bench driver. Called concurrently they are
// well-defined (no data races, no torn counters — shard fields are relaxed
// atomics) but may miss in-flight increments; Reset() concurrent with a
// running worker may lose that worker's simultaneous increments.
#ifndef SRC_PMSIM_STATS_H_
#define SRC_PMSIM_STATS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/lock.h"
#include "src/pmsim/config.h"
#include "src/trace/component.h"

namespace cclbt::pmsim {

// The single source of truth for the counter set. S(name) declares a scalar
// counter, A(name, n) an n-element array counter.
#define CCLBT_PMSIM_STATS_FIELDS(S, A)                                      \
  S(user_bytes)                                                             \
  S(line_flushes)                                                           \
  S(fences)                                                                 \
  S(xpbuffer_write_bytes)                                                   \
  S(media_write_bytes)                                                      \
  S(media_read_bytes)                                                       \
  S(remote_accesses)                                                        \
  S(pm_reads)                                                               \
  S(pm_read_hits)                                                           \
  S(crashes_injected)                                                       \
  S(crash_lines_dropped)                                                    \
  S(crash_torn_lines_applied)                                               \
  A(media_write_bytes_by_component, ::cclbt::trace::kNumComponents)         \
  A(committed_lines_by_component, ::cclbt::trace::kNumComponents)           \
  A(rmw_evictions_by_component, ::cclbt::trace::kNumComponents)

// Total uint64 words in the field list, for the bypass static_asserts.
namespace stats_detail {
#define CCLBT_STATS_COUNT_S(name) +1
#define CCLBT_STATS_COUNT_A(name, n) +(n)
inline constexpr size_t kStatsWords =
    0 CCLBT_PMSIM_STATS_FIELDS(CCLBT_STATS_COUNT_S, CCLBT_STATS_COUNT_A);
#undef CCLBT_STATS_COUNT_S
#undef CCLBT_STATS_COUNT_A
}  // namespace stats_detail

struct StatsSnapshot {
#define CCLBT_STATS_DECL_S(name) uint64_t name = 0;
#define CCLBT_STATS_DECL_A(name, n) uint64_t name[n] = {};
  CCLBT_PMSIM_STATS_FIELDS(CCLBT_STATS_DECL_S, CCLBT_STATS_DECL_A)
#undef CCLBT_STATS_DECL_S
#undef CCLBT_STATS_DECL_A

  // CLI-amplification: XPBuffer bytes per user byte (paper §2.1).
  double CliAmplification() const {
    return user_bytes == 0 ? 0.0
                           : static_cast<double>(xpbuffer_write_bytes) /
                                 static_cast<double>(user_bytes);
  }
  // XBI-amplification: media bytes per user byte (paper §2.1).
  double XbiAmplification() const {
    return user_bytes == 0
               ? 0.0
               : static_cast<double>(media_write_bytes) / static_cast<double>(user_bytes);
  }

  uint64_t media_write_bytes_for(trace::Component c) const {
    return media_write_bytes_by_component[static_cast<int>(c)];
  }

  StatsSnapshot Delta(const StatsSnapshot& earlier) const {
    StatsSnapshot d;
#define CCLBT_STATS_DELTA_S(name) d.name = name - earlier.name;
#define CCLBT_STATS_DELTA_A(name, n)          \
  for (int i = 0; i < (n); i++) {             \
    d.name[i] = name[i] - earlier.name[i];    \
  }
    CCLBT_PMSIM_STATS_FIELDS(CCLBT_STATS_DELTA_S, CCLBT_STATS_DELTA_A)
#undef CCLBT_STATS_DELTA_S
#undef CCLBT_STATS_DELTA_A
    return d;
  }
};

// Every member must come from CCLBT_PMSIM_STATS_FIELDS: a counter added to
// the struct directly would change sizeof without changing kStatsWords.
static_assert(sizeof(StatsSnapshot) == stats_detail::kStatsWords * sizeof(uint64_t),
              "StatsSnapshot has a member outside CCLBT_PMSIM_STATS_FIELDS");

// One thread's private counter block. Exactly one thread writes it at a time
// (its increments are relaxed load+store, which the compiler lowers to a
// plain add — no lock prefix); other threads only issue relaxed loads from
// Snapshot(). alignas(64) keeps shards off each other's cachelines.
struct alignas(64) StatsShard {
#define CCLBT_STATS_DECL_S(name) std::atomic<uint64_t> name{0};
#define CCLBT_STATS_DECL_A(name, n) std::atomic<uint64_t> name[n] = {};
  CCLBT_PMSIM_STATS_FIELDS(CCLBT_STATS_DECL_S, CCLBT_STATS_DECL_A)
#undef CCLBT_STATS_DECL_S
#undef CCLBT_STATS_DECL_A

  // Single-writer increment: no RMW, no contention.
  static void Bump(std::atomic<uint64_t>& c, uint64_t n = 1) {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  void AddUserBytes(uint64_t n) { Bump(user_bytes, n); }
  void AddLineFlush() {
    Bump(line_flushes);
    Bump(xpbuffer_write_bytes, kCachelineBytes);
  }
  void AddFence() { Bump(fences); }
  // `comp` charges the media write to the subsystem whose scope created the
  // evicted XPLine (see trace::TraceScope).
  void AddMediaWrite(trace::Component comp, uint64_t bytes = kXplineBytes) {
    Bump(media_write_bytes, bytes);
    Bump(media_write_bytes_by_component[static_cast<int>(comp)], bytes);
  }
  // `n` cachelines entered the XPBuffer on behalf of `comp` (fence commit,
  // or eADR cache insert).
  void AddCommittedLines(trace::Component comp, uint64_t n) {
    Bump(committed_lines_by_component[static_cast<int>(comp)], n);
  }
  void AddMediaRead(uint64_t bytes = kXplineBytes) { Bump(media_read_bytes, bytes); }
  // An evicted media unit of `comp` was only partly dirty: the device reads
  // it before writing it back (read-modify-write).
  void AddRmwEviction(trace::Component comp, uint64_t bytes = kXplineBytes) {
    AddMediaRead(bytes);
    Bump(rmw_evictions_by_component[static_cast<int>(comp)]);
  }
  void AddRemoteAccess() { Bump(remote_accesses); }
  void AddPmRead(bool hit) {
    Bump(pm_reads);
    if (hit) {
      Bump(pm_read_hits);
    }
  }

  void AccumulateInto(StatsSnapshot& s) const {
#define CCLBT_STATS_ACC_S(name) s.name += name.load(std::memory_order_relaxed);
#define CCLBT_STATS_ACC_A(name, n)                       \
  for (int i = 0; i < (n); i++) {                        \
    s.name[i] += name[i].load(std::memory_order_relaxed); \
  }
    CCLBT_PMSIM_STATS_FIELDS(CCLBT_STATS_ACC_S, CCLBT_STATS_ACC_A)
#undef CCLBT_STATS_ACC_S
#undef CCLBT_STATS_ACC_A
  }

  // Multi-writer-safe add of a whole snapshot (atomic RMWs; used for the
  // shared base shard when folding or on context-free cold paths).
  void FetchAdd(const StatsSnapshot& s) {
#define CCLBT_STATS_ADD_S(name) name.fetch_add(s.name, std::memory_order_relaxed);
#define CCLBT_STATS_ADD_A(name, n)                          \
  for (int i = 0; i < (n); i++) {                           \
    name[i].fetch_add(s.name[i], std::memory_order_relaxed); \
  }
    CCLBT_PMSIM_STATS_FIELDS(CCLBT_STATS_ADD_S, CCLBT_STATS_ADD_A)
#undef CCLBT_STATS_ADD_S
#undef CCLBT_STATS_ADD_A
  }

  void StoreZero() {
#define CCLBT_STATS_ZERO_S(name) name.store(0, std::memory_order_relaxed);
#define CCLBT_STATS_ZERO_A(name, n)            \
  for (int i = 0; i < (n); i++) {              \
    name[i].store(0, std::memory_order_relaxed); \
  }
    CCLBT_PMSIM_STATS_FIELDS(CCLBT_STATS_ZERO_S, CCLBT_STATS_ZERO_A)
#undef CCLBT_STATS_ZERO_S
#undef CCLBT_STATS_ZERO_A
  }
};

static_assert(sizeof(std::atomic<uint64_t>) == sizeof(uint64_t));
// Same bypass guard as StatsSnapshot, modulo the alignas(64) tail padding.
static_assert(sizeof(StatsShard) ==
                  (stats_detail::kStatsWords * sizeof(uint64_t) + 63) / 64 * 64,
              "StatsShard has a member outside CCLBT_PMSIM_STATS_FIELDS");

class Stats {
 public:
  // Multi-writer-safe fallback accessors: atomic RMWs on the shared base
  // shard. Used by cold paths (end-of-run drains) and by tests/drivers that
  // update counters without a ThreadContext; hot-path code goes through the
  // calling context's StatsShard instead.
  void AddUserBytes(uint64_t n) { base_.user_bytes.fetch_add(n, std::memory_order_relaxed); }
  void AddLineFlush() {
    base_.line_flushes.fetch_add(1, std::memory_order_relaxed);
    base_.xpbuffer_write_bytes.fetch_add(kCachelineBytes, std::memory_order_relaxed);
  }
  void AddFence() { base_.fences.fetch_add(1, std::memory_order_relaxed); }
  void AddMediaWrite(trace::Component comp, uint64_t bytes = kXplineBytes) {
    base_.media_write_bytes.fetch_add(bytes, std::memory_order_relaxed);
    base_.media_write_bytes_by_component[static_cast<int>(comp)].fetch_add(
        bytes, std::memory_order_relaxed);
  }
  void AddCommittedLines(trace::Component comp, uint64_t n) {
    base_.committed_lines_by_component[static_cast<int>(comp)].fetch_add(
        n, std::memory_order_relaxed);
  }
  void AddMediaRead(uint64_t bytes = kXplineBytes) {
    base_.media_read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  void AddRmwEviction(trace::Component comp, uint64_t bytes = kXplineBytes) {
    AddMediaRead(bytes);
    base_.rmw_evictions_by_component[static_cast<int>(comp)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void AddRemoteAccess() { base_.remote_accesses.fetch_add(1, std::memory_order_relaxed); }
  void AddPmRead(bool hit) {
    base_.pm_reads.fetch_add(1, std::memory_order_relaxed);
    if (hit) {
      base_.pm_read_hits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // One crash event (PmDevice::Crash/CrashTorn): `lines_dropped` pending
  // lines vanished, `torn_lines_applied` pending lines persisted anyway.
  void AddCrash(uint64_t lines_dropped, uint64_t torn_lines_applied) {
    base_.crashes_injected.fetch_add(1, std::memory_order_relaxed);
    base_.crash_lines_dropped.fetch_add(lines_dropped, std::memory_order_relaxed);
    base_.crash_torn_lines_applied.fetch_add(torn_lines_applied, std::memory_order_relaxed);
  }

  // Registers a live single-writer shard to be included in Snapshot().
  void RegisterShard(StatsShard* shard) {
    sync::LockGuard<sync::Mutex> guard(shards_mu_);
    shards_.push_back(shard);
  }

  // Folds the shard's totals into the base and removes it from the registry
  // (the shard's owner is going away). The shard is zeroed.
  void UnregisterShard(StatsShard* shard) {
    StatsSnapshot totals;
    shard->AccumulateInto(totals);
    shard->StoreZero();
    sync::LockGuard<sync::Mutex> guard(shards_mu_);
    for (size_t i = 0; i < shards_.size(); i++) {
      if (shards_[i] == shard) {
        shards_[i] = shards_.back();
        shards_.pop_back();
        break;
      }
    }
    base_.FetchAdd(totals);
  }

  // Base + all live shards. Exact when quiesced (see file header).
  StatsSnapshot Snapshot() const {
    sync::LockGuard<sync::Mutex> guard(shards_mu_);
    StatsSnapshot s;
    base_.AccumulateInto(s);
    for (const StatsShard* shard : shards_) {
      shard->AccumulateInto(s);
    }
    return s;
  }

  // Zeroes the base and every live shard with atomic stores. Callers must
  // quiesce workers first for exact semantics (a racing worker's concurrent
  // increments may be lost, but no torn/undefined values can result).
  void Reset() {
    sync::LockGuard<sync::Mutex> guard(shards_mu_);
    base_.StoreZero();
    for (StatsShard* shard : shards_) {
      shard->StoreZero();
    }
  }

 private:
  StatsShard base_;
  mutable sync::Mutex shards_mu_{"pm.stats_shards"};
  std::vector<StatsShard*> shards_ GUARDED_BY(shards_mu_);
};

}  // namespace cclbt::pmsim

#endif  // SRC_PMSIM_STATS_H_
