// Abstract interface implemented by CCL-BTree and every baseline index so
// the benchmark harness, YCSB driver and amplification probes are shared.
//
// Threading contract: all operations may be called concurrently from worker
// threads; each worker must hold a live pmsim::ThreadContext (the harness
// sets this up). Keys and values are 8 B words; variable-size KVs use
// pmem::ValueStore indirection handles as words (paper §4.4 Opt. 3).
#ifndef SRC_KVINDEX_KV_INDEX_H_
#define SRC_KVINDEX_KV_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cclbt::kvindex {

class Runtime;

// Persistence lifecycle of an index instance (DESIGN.md §9). kCreate formats
// fresh persistent state; kAttach binds to state that already exists on the
// device (after Runtime::Reopen) and requires a successful Recover() before
// any operation.
enum class Lifecycle { kCreate, kAttach };

struct KeyValue {
  uint64_t key;
  uint64_t value;
};

struct MemoryFootprint {
  uint64_t dram_bytes = 0;
  uint64_t pm_bytes = 0;
};

class KvIndex {
 public:
  virtual ~KvIndex() = default;

  // Insert or update (the paper implements both as upsert, §4.2).
  virtual void Upsert(uint64_t key, uint64_t value) = 0;

  // Point lookup; returns false if absent.
  virtual bool Lookup(uint64_t key, uint64_t* value_out) = 0;

  // Delete; returns false if absent. Indexes that cannot detect absence
  // cheaply may return true unconditionally (noted per implementation).
  virtual bool Remove(uint64_t key) = 0;

  // Range query: up to `count` entries with key >= start_key in ascending
  // key order. Returns the number written to `out`.
  virtual size_t Scan(uint64_t start_key, size_t count, KeyValue* out) = 0;

  virtual const char* name() const = 0;

  // DRAM / PM space accounting for the paper's Figure 18.
  virtual MemoryFootprint Footprint() const = 0;

  // Writes every buffered KV through to the index's persistent structure:
  // CCL-BTree flushes each buffer node to its leaf, DPTree merges its buffer
  // into the base tree, the LSM store flushes its memtable. Naive GC is
  // built on it; benches and tests call it to reach a drained state.
  virtual void FlushAll() {}

  // Deterministic-GC hook (DESIGN.md §10): an index with a schedulable
  // background reclaimer checks its trigger here and runs a bounded slice
  // of its work at this virtual-time point (CclBTree: one span of a
  // locality-aware round, or a whole naive round), charging the work to its
  // own context. Returns true if work ran. CclBTree's cooperative quantum
  // calls it every gc_quantum_ops-th upsert; tests may also call it at
  // chosen virtual-time points. Indexes without background work keep the
  // no-op default.
  virtual bool GcTick() { return false; }

  // Observability hook: append (name, value) gauge samples describing the
  // index's current internal state (GC backlog, buffer churn, structural
  // counters). Pulled by the measured phase at virtual-time epoch ends —
  // implementations must only read existing counters/accessors, never touch
  // pmsim state, so sampling cannot perturb the flush schedule. Gauges are
  // cumulative values; consumers window them by differencing consecutive
  // samples. Indexes with nothing to report keep the no-op default.
  virtual void SampleGauges(std::vector<std::pair<std::string, uint64_t>>* out) const {
    (void)out;
  }

  // --- persistence lifecycle (DESIGN.md §9) --------------------------------
  // An index is `recoverable` when it can be constructed with
  // Lifecycle::kAttach after Runtime::Reopen() and rebuild its DRAM state
  // from the surviving media via Recover(). Baselines whose layout cannot
  // support this declare it honestly (the default) and are skipped — never
  // faked — by crash tooling.
  virtual bool recoverable() const { return false; }
  // True when recovery additionally tolerates torn fence groups
  // (PmDevice::CrashTorn): any half-persisted line must read as old or new
  // state, never act as garbage (e.g. CCL-BTree's checksum-tagged WAL
  // entries). Recoverable-but-not-torn-tolerant is a valid honest answer.
  virtual bool tolerates_torn_crash() const { return false; }
  // Rebuilds DRAM state from the persistent image. Only meaningful on a
  // kAttach instance; returns false if the index is not recoverable, was not
  // attach-constructed, or the persistent root is missing/invalid.
  virtual bool Recover(Runtime& runtime, int recovery_threads) {
    (void)runtime;
    (void)recovery_threads;
    return false;
  }
  // Modeled virtual-time cost of the last successful Recover() (Fig. 17).
  virtual uint64_t last_recovery_modeled_ns() const { return 0; }
};

}  // namespace cclbt::kvindex

#endif  // SRC_KVINDEX_KV_INDEX_H_
