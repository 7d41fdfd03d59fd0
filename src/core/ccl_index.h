// The core of both CCL indexes (DESIGN.md §2): the persistent root record,
// the leaf and log slabs, the WALs, the buffered write path (§3.2–§3.3), GC
// scheduling (§3.4, §10) and recovery. CCL-BTree and CCL-Hash supply only
// where a key's buffer node is and how a batch lands in its leaf or chain.
#ifndef SRC_CORE_CCL_INDEX_H_
#define SRC_CORE_CCL_INDEX_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/lock.h"
#include "src/core/buffer_node.h"
#include "src/core/options.h"
#include "src/core/wal.h"
#include "src/kvindex/kv_index.h"
#include "src/kvindex/runtime.h"
#include "src/pmem/slab_allocator.h"

namespace cclbt::core {

// Modeled time of each recovery phase on the boot context's clock, which
// runs through them in this order (bench_fig17_recovery prints them).
struct RecoveryPhases {
  uint64_t rebuild_ns = 0;  // the index's own walk of its leaf list or chains
  // Replay's phases; reclaim is the floor persist and chunk frees.
  uint64_t scan_ns = 0;
  uint64_t apply_ns = 0;
  uint64_t copy_ns = 0;
  uint64_t reclaim_ns = 0;

  uint64_t total_ns() const { return rebuild_ns + scan_ns + apply_ns + copy_ns + reclaim_ns; }
};

class CclIndex : public kvindex::KvIndex {
 public:
  ~CclIndex() override = default;

  CclIndex(const CclIndex&) = delete;
  CclIndex& operator=(const CclIndex&) = delete;

  // --- kvindex::KvIndex -----------------------------------------------------
  // Every gc_quantum_ops-th upsert then ticks the GC (GcTick).
  void Upsert(uint64_t key, uint64_t value) override;
  bool Remove(uint64_t key) override;  // tombstone upsert (§4.2); always true
  void FlushAll() override;

  // --- persistence lifecycle (paper §3.3, DESIGN.md §9) ----------------------
  bool recoverable() const override { return true; }
  // Torn fence groups are safe: WAL entries carry a generation^checksum tag
  // that rejects partially persisted entries, and a leaf or bucket batch
  // persists its data lines before the header line that publishes them.
  bool tolerates_torn_crash() const override { return true; }
  // Failure recovery: validates the root record, rebuilds the DRAM layer
  // (Rebuild), then replays the WALs on `recovery_threads` virtual workers
  // (Replay). A crash anywhere inside recovery recovers again to the same
  // state. Only valid once, on a kAttach instance; returns false on a
  // missing or damaged root record, registry or chunk, or if Rebuild fails.
  bool Recover(kvindex::Runtime& runtime, int recovery_threads) override;
  // Modeled duration of the last Recover() call (paper Figure 17): the boot
  // context's elapsed clock over rebuild, scan, stage (it waits at the
  // replay workers' barriers), copy, floor persist and chunk reclaim.
  uint64_t last_recovery_modeled_ns() const override { return recovery_phases_.total_ns(); }
  const RecoveryPhases& last_recovery_phases() const { return recovery_phases_; }

  // --- GC (paper §3.4, scheduling DESIGN.md §10) -----------------------------
  // Runs a GC round to its end in the caller's context: the one GcTick()
  // started, else a new one. Returns whether it released the B-log: not in
  // GcMode::kNone, nor when the log slab ran out (then no log was freed).
  bool RunGcOnce();
  bool GcTriggerReached() const;
  // Deterministic virtual-time GC step on the index-owned GC context, called
  // every gc_quantum_ops-th upsert (never with a quantum of 0); tests may
  // call it directly. Locality-aware GC starts a round if none is active and the
  // trigger has fired, then runs one span of it (LocalityAwareGcRound) that
  // ends by the calling worker's present: at max(GC clock, W - S), where W
  // is the caller's clock and S one span's media service time, and not at
  // all while the GC clock is past W - S. With no current context the span
  // runs at the GC clock. Naive GC runs a whole stop-the-world round at the
  // frontier of all live worker clocks and raises every clock to its end.
  // Returns true if a span or round ran. No-op in GcMode::kNone and while
  // another thread is inside a tick.
  bool GcTick() override;
  // Fence-count windows [first, last] (1-based, inclusive) of GC spans (a
  // naive round is one), recorded only while a pmsim::CrashInjector is
  // installed. The crash matrix schedules points inside these windows to
  // crash mid-GC.
  struct GcFenceWindow {
    uint64_t first_fence = 0;
    uint64_t last_fence = 0;
  };
  std::vector<GcFenceWindow> gc_fence_windows() const;

  // --- introspection ----------------------------------------------------------
  uint64_t log_live_bytes() const { return wals_->live_bytes(); }
  uint64_t log_peak_bytes() const { return wals_->peak_bytes(); }
  const pmem::SlabAllocator& log_slab() const { return *log_slab_; }
  uint64_t dram_hits() const { return dram_hits_.load(std::memory_order_relaxed); }
  uint64_t buffer_flushes() const { return buffer_flushes_.load(std::memory_order_relaxed); }
  uint64_t gc_rounds() const { return gc_rounds_.load(std::memory_order_relaxed); }
  // Virtual clock of the deterministic GC context (0 when gc_mode is kNone).
  // Benches fold this into the run's modeled elapsed time.
  uint64_t gc_vtime_ns() const { return gc_ctx_ ? gc_ctx_->now_ns() : 0; }
  const TreeOptions& options() const { return options_; }

 protected:
  // The root record, in app-root slot `root_slot`, holds `magic`, then
  // `own_words` (at most kMaxOwnWords) words of the index's own, then
  // CommonRoot. A kCreate index formats it in Create(), which the derived
  // constructor calls last; a kAttach one binds to it in Recover().
  CclIndex(kvindex::Runtime& runtime, const TreeOptions& options,
           kvindex::Lifecycle lifecycle, int root_slot, uint64_t magic, size_t own_words);

  static constexpr size_t kMaxOwnWords = 2;
  struct CommonRoot {
    uint64_t leaf_registry_offset;
    uint64_t log_registry_offset;
    // Every leaf and log timestamp written before the last completed replay
    // is at most this; the index adds it to every ORDO reading, since a
    // restart restarts the ORDO clock.
    uint64_t ts_floor;
  };

  // On a boot context on the home socket: the slabs and WALs, Format(), the
  // root record, then the GC context.
  void Create();

  // --- what each index supplies ----------------------------------------------
  // Formats the persistent structure and the DRAM layer, and writes the
  // index's own root words to own[0, own_words).
  virtual void Format(uint64_t* own) = 0;
  // Checks the own root words and rebuilds the DRAM layer, reclaiming
  // unreachable leaf-slab slots; each node's replay filter is max(its leaf
  // or chain timestamp, floor), and *max_ts rises to every timestamp read.
  virtual bool Rebuild(const uint64_t* own, uint64_t floor, uint64_t* max_ts) = 0;
  // Charges the DRAM descent to `key`'s buffer node and returns it locked.
  virtual BufferNode* LockNode(uint64_t key) = 0;
  // Unlocks bn after an upsert; `flushed` says whether it flushed the node.
  virtual void AfterUpsert(BufferNode* bn, bool flushed) = 0;
  // The buffer node covering `key` (no lock; recovery replay).
  virtual BufferNode* NodeOf(uint64_t key) const = 0;
  // Writes kvs[0, n), n <= 8, into locked bn's leaf or chain in one batch
  // stamped `ts`. A batch stamped 0 keeps every timestamp (recovery replay;
  // a foreground timestamp is never 0, as ORDO starts at 1).
  virtual void WriteBatch(BufferNode* bn, kvindex::KeyValue* kvs, int n, uint64_t ts) = 0;
  // Every live buffer node, in a fixed order.
  virtual std::vector<BufferNode*> Nodes() const = 0;
  // PM bytes of leaves or buckets: the GC trigger's TH_log reference.
  virtual uint64_t data_bytes() const = 0;

  // --- shared helpers -----------------------------------------------------------
  // Timestamp for a log entry or batch: the ORDO clock above the floor.
  uint64_t Timestamp() const { return ts_floor_ + rt_.ordo().Now(); }
  void ChargeDram(uint64_t accesses) const {
    pmsim::AdvanceCpu(accesses * rt_.device().config().cost.dram_access_ns);
  }
  // Flushes all of bn's buffered KVs in one batch (bn locked).
  void FlushNode(BufferNode* bn);

  kvindex::Runtime& rt_;
  TreeOptions options_;
  std::unique_ptr<pmem::SlabAllocator> leaf_slab_;  // leaves or overflow buckets
  std::unique_ptr<pmem::SlabAllocator> log_slab_;
  std::unique_ptr<WalSet> wals_;
  // The socket of the root record, where the boot, replay and GC contexts run.
  int home_socket_ = 0;
  std::atomic<uint64_t> dram_hits_{0};

 private:
  size_t root_bytes() const { return sizeof(uint64_t) * (1 + own_words_) + sizeof(CommonRoot); }

  // --- write path -------------------------------------------------------------
  void UpsertLocked(uint64_t key, uint64_t value);
  // Writes one flush batch of bn (BufferNode::Flush or ::Upsert; bn locked)
  // stamped `ts`, counted in buffer_flushes.
  void FlushBatch(BufferNode* bn, kvindex::KeyValue* batch, int n, uint64_t ts);

  // --- GC internals ------------------------------------------------------------
  // Creates the GC context. Called exactly once per instance, only after the
  // index is fully initialized (end of Create() or after recovered_ is set
  // in Recover()) — no code path may start GC on an index whose recovery is
  // unsettled.
  void InitGc();
  void NaiveGc();
  // Locality-aware GC with gc_tick_mu_ held: begins a round appending to the
  // current context's WAL, and runs its next span.
  void BeginGcRound();
  LocalityAwareGcRound::Progress RunGcSpan();
  // Runs `work`, recording its fences as a GC window when a crash injector
  // is installed.
  template <typename Work>
  void InGcWindow(Work&& work);

  // --- recovery -------------------------------------------------------------------
  // Recovery's replay (DESIGN.md §10), on `threads` virtual workers on the
  // boot context's socket, starting at its clock:
  //   scan     each step scans one chunk; barrier; each key's newest entry
  //            is kept, in key order, if newer than its node's filter;
  //   stage    each step takes the next entries of one node and stages each
  //            in a free slot of the node, DRAM only, as a buffered upsert
  //            does; a full node's staged KVs and next entries, up to 8, go
  //            to its leaf or chain in one batch stamped 0 instead; barrier;
  //   copy     the boot context, at the slowest worker's clock, runs one
  //            LocalityAwareGcRound to its end from the last WAL (the GC's),
  //            stamping every copy above `max_ts`, so the staged KVs are
  //            durable one fence per 4 KiB of log, not one batch per key;
  //   reclaim  it persists *floor, the root's timestamp floor, raised to
  //            `max_ts` and every timestamp read, then frees exactly the
  //            chunks the scan found active.
  // The chunks the scan found free are back on the free lists before the
  // stage (SlabAllocator::Recover), so the copy reuses one. No write before
  // the copy's last fence raises a timestamp, since until then a staged KV's
  // only durable copy is in the old log; if the log slab cannot hold the
  // copy, the KVs still staged are written like a full node's, so recovery
  // never needs free log space. The floor lands before the reclaim, so a
  // crash anywhere recovers again to the same state. Returns the new floor
  // and sets the modeled time of the four phases in *phases.
  uint64_t Replay(int threads, uint64_t max_ts, uint64_t* floor, RecoveryPhases* phases);

  kvindex::Lifecycle lifecycle_;
  int root_slot_;
  uint64_t magic_;
  size_t own_words_;
  bool recovered_ = false;
  uint64_t ts_floor_ = 0;  // CommonRoot::ts_floor as of the last Recover()

  std::atomic<uint32_t> global_epoch_{0};
  // Gate used only by the naive GC baseline: upserts shared, GC exclusive.
  sync::SharedMutex naive_gate_{"ccl.naive_gate"};

  std::atomic<uint64_t> buffer_flushes_{0};
  std::atomic<uint64_t> gc_rounds_{0};
  // Live log bytes right after the last GC round (hysteresis floor).
  std::atomic<uint64_t> post_gc_live_bytes_{0};
  RecoveryPhases recovery_phases_;  // of the last Recover(), written before recovered_

  // --- GC scheduling state (DESIGN.md §10) ------------------------------------
  // The index-owned context all GC PM traffic is charged to (fig14's GC cost
  // model), and the round in progress, serialized by gc_tick_mu_.
  std::unique_ptr<pmsim::ThreadContext> gc_ctx_;
  std::optional<LocalityAwareGcRound> gc_round_;
  std::atomic<bool> gc_round_active_{false};  // gc_round_ holds a round
  uint64_t gc_span_ns_ = 0;  // S: media service time of one span's 4 KiB
  sync::Mutex gc_tick_mu_{"ccl.gc_tick"};
  // Upserts since creation; every gc_quantum_ops-th one checks the trigger.
  std::atomic<uint64_t> gc_op_counter_{0};
  // Completed GC rounds as fence-count windows; recorded only while a crash
  // injector is installed (crash-matrix runs), so the hot path never locks.
  mutable sync::Mutex gc_windows_mu_{"ccl.gc_windows"};
  std::vector<GcFenceWindow> gc_fence_windows_ GUARDED_BY(gc_windows_mu_);
};

}  // namespace cclbt::core

#endif  // SRC_CORE_CCL_INDEX_H_
