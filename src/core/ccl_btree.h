// CCL-BTree: crash-consistent locality-aware B+-tree (the paper's
// contribution). See DESIGN.md for the module map.
//
// Structure (paper Figure 6):
//   inner nodes   DRAM  kvindex::DramBTree separators -> BufferNode*
//   buffer nodes  DRAM  N_batch write-merging slots + read cache (§3.2)
//   leaf nodes    PM    256 B, unsorted, ordered between leaves (§4.1)
//   WALs          PM    per-thread, write-conservative (§3.3)
//   GC            background, locality-aware B-log/I-log flip (§3.4)
#ifndef SRC_CORE_CCL_BTREE_H_
#define SRC_CORE_CCL_BTREE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/lock.h"
#include "src/core/buffer_node.h"
#include "src/core/leaf_node.h"
#include "src/core/options.h"
#include "src/core/wal.h"
#include "src/kvindex/dram_btree.h"
#include "src/kvindex/kv_index.h"
#include "src/kvindex/runtime.h"
#include "src/pmem/slab_allocator.h"

namespace cclbt::core {

class CclBTree : public kvindex::KvIndex {
 public:
  // Formats a fresh tree in the runtime's pool (Lifecycle::kCreate), or
  // binds to an existing persistent tree after Runtime::Reopen()
  // (Lifecycle::kAttach) — an attached tree must complete Recover() before
  // any operation.
  CclBTree(kvindex::Runtime& runtime, const TreeOptions& options,
           kvindex::Lifecycle lifecycle = kvindex::Lifecycle::kCreate);

  ~CclBTree() override;

  CclBTree(const CclBTree&) = delete;
  CclBTree& operator=(const CclBTree&) = delete;

  // --- kvindex::KvIndex -----------------------------------------------------
  void Upsert(uint64_t key, uint64_t value) override;
  bool Lookup(uint64_t key, uint64_t* value_out) override;
  bool Remove(uint64_t key) override;  // tombstone upsert (§4.2)
  size_t Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) override;
  const char* name() const override { return "CCL-BTree"; }
  kvindex::MemoryFootprint Footprint() const override;
  void FlushAll() override;

  // --- persistence lifecycle (paper §3.3, DESIGN.md §9) ----------------------
  bool recoverable() const override { return true; }
  // Torn fence groups are safe: WAL entries carry a generation^checksum tag
  // that rejects partially persisted entries, and leaf batches persist data
  // lines before the header line that publishes them.
  bool tolerates_torn_crash() const override { return true; }
  // Failure recovery: rebuilds the DRAM layers from the persistent leaf
  // list, stages each key's newest WAL entry in its buffer node on
  // `recovery_threads` virtual workers (paper Figure 17), makes the staged
  // KVs durable with one locality-aware GC copy, raises the persisted
  // timestamp floor past every timestamp it read, and reclaims unreachable
  // leaves and log chunks (WalSet::Replay). Leaf timestamps are never
  // rewritten. A crash anywhere inside recovery recovers again to the same
  // state. Only valid once, on a kAttach instance; returns false if the pool
  // holds no valid tree root, a registry or chunk it names is not wholly
  // inside the pool, or the leaf list leaves the leaf slab, loops or is out
  // of key order.
  bool Recover(kvindex::Runtime& runtime, int recovery_threads) override;

  // --- GC (paper §3.4, scheduling DESIGN.md §10) -----------------------------
  // Runs a GC round to its end in the caller's context: the one GcTick()
  // started, else a new one (benches and tests drive this directly).
  void RunGcOnce();
  bool GcTriggerReached() const;
  // Deterministic virtual-time GC step on the tree-owned GC context, called
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
  uint64_t leaf_bytes() const { return leaf_slab_->allocated_slots() * kLeafBytes; }
  uint64_t dram_hits() const { return dram_hits_.load(std::memory_order_relaxed); }
  uint64_t buffer_flushes() const { return buffer_flushes_.load(std::memory_order_relaxed); }
  uint64_t splits() const { return splits_.load(std::memory_order_relaxed); }
  uint64_t merges() const { return merges_.load(std::memory_order_relaxed); }
  uint64_t gc_rounds() const { return gc_rounds_.load(std::memory_order_relaxed); }
  // Virtual clock of the deterministic GC context (0 when gc_mode is kNone).
  // Benches fold this into the run's modeled elapsed time.
  uint64_t gc_vtime_ns() const { return gc_ctx_ ? gc_ctx_->now_ns() : 0; }
  // Modeled duration of the last Recover() call (paper Figure 17): the boot
  // context's elapsed clock over rebuild, scan, stage (it waits at the
  // replay workers' barriers), copy, floor persist and chunk reclaim.
  uint64_t last_recovery_modeled_ns() const override { return recovery_phases_.total_ns(); }
  const RecoveryPhases& last_recovery_phases() const { return recovery_phases_; }
  const TreeOptions& options() const { return options_; }

  // Metrics epoch gauges (kv_index.h contract): GC round count and log
  // backlog, buffer churn, structural counters — all reads of existing
  // relaxed counters/accessors, no pmsim traffic.
  void SampleGauges(std::vector<std::pair<std::string, uint64_t>>* out) const override;

  // Walks the persistent leaf list and verifies structural invariants
  // (ordering between leaves, bitmap/fingerprint agreement). Test hook.
  bool CheckInvariants() const;

 private:
  struct TreeRoot {  // persistent root record (pool app-root slot
                     // TreeOptions::root_slot, default 0)
    uint64_t magic;
    uint64_t head_leaf_offset;
    uint64_t slab_registry_offset;
    uint64_t log_registry_offset;
    // Every leaf and log timestamp written before the last completed replay
    // is at most this; the tree adds it to every ORDO reading, since a
    // restart restarts the ORDO clock.
    uint64_t ts_floor;
  };
  static constexpr uint64_t kTreeMagic = 0xCC1B7123ULL;

  // --- write path -------------------------------------------------------------
  void UpsertInternal(uint64_t key, uint64_t value);
  // Routes to the covering buffer node and acquires its version lock,
  // retrying on concurrent splits/merges.
  BufferNode* RouteAndLock(uint64_t key);
  // Writes one flush batch of bn (BufferNode::Flush or ::Upsert; bn locked)
  // to its leaf, stamped `ts`, then blanks each cache slot that no longer
  // mirrors the leaf.
  void FlushBatch(BufferNode* bn, kvindex::KeyValue* batch, int n, uint64_t ts);
  // Flushes all of bn's buffered KVs to its leaf in one batch (bn locked).
  void FlushBuffer(BufferNode* bn) {
    const uint64_t ts = Timestamp();
    bn->Flush({}, [&](kvindex::KeyValue* batch, int n) { FlushBatch(bn, batch, n, ts); });
  }
  // Applies `n` KVs to bn's leaf: in-place updates, tombstones, new slots;
  // splits when full. Persists data lines then the header (bn locked).
  // When update_ts is false the leaf timestamp is preserved (recovery replay).
  void BatchInsertLeaf(BufferNode* bn, kvindex::KeyValue* kvs, int n, uint64_t ts,
                       bool update_ts = true);
  // Logless split (paper §4.2); returns the new right-hand buffer node.
  BufferNode* SplitLeaf(BufferNode* bn);
  // Merge bn's underutilized leaf into its left sibling if possible
  // (paper §4.2). Called with bn *unlocked*; takes locks in key order.
  void TryMergeLeft(uint64_t sep);

  // --- GC internals ------------------------------------------------------------
  // Creates the GC context. Called exactly once per instance, only after the
  // tree is fully initialized (end of the kCreate constructor or after
  // recovered_ is set in Recover()) — no code path may start GC on a tree
  // whose recovery is unsettled.
  void InitGc();
  void NaiveGc();
  // Locality-aware GC with gc_tick_mu_ held: begins a round appending to the
  // current context's WAL, and runs its next span, returning true once the
  // round has ended.
  void BeginGcRound();
  bool RunGcSpan();
  // Runs `work`, recording its fences as a GC window when a crash injector
  // is installed.
  template <typename Work>
  void InGcWindow(Work&& work);
  // Collects live buffer nodes in key order (brief shared-lock windows).
  std::vector<BufferNode*> CollectBufferNodes() const;

  // --- recovery internals --------------------------------------------------------
  // Raises *max_ts to every leaf timestamp and snapshots max(leaf timestamp,
  // floor) as each buffer node's replay filter.
  bool RebuildFromLeafList(uint64_t floor, uint64_t* max_ts);

  // --- helpers ----------------------------------------------------------------
  // Timestamp for a log entry or leaf flush: the ORDO clock above the floor.
  uint64_t Timestamp() const { return ts_floor_ + rt_.ordo().Now(); }
  PmLeaf* AllocLeaf(int socket);
  BufferNode* NewBufferNode(PmLeaf* leaf, uint64_t sep, uint64_t recovery_ts);
  uint64_t LeafOffset(const PmLeaf* leaf) const;
  PmLeaf* LeafAt(uint64_t offset) const;
  void ChargeDram(uint64_t accesses) const;

  kvindex::Runtime& rt_;
  TreeOptions options_;
  kvindex::Lifecycle lifecycle_;
  bool recovered_ = false;

  std::unique_ptr<pmem::SlabAllocator> leaf_slab_;
  std::unique_ptr<pmem::SlabAllocator> log_slab_;
  std::unique_ptr<WalSet> wals_;

  kvindex::DramBTree<BufferNode*> inner_;
  PmLeaf* head_leaf_ = nullptr;
  uint64_t ts_floor_ = 0;  // TreeRoot::ts_floor as of the last Recover()

  std::atomic<uint32_t> global_epoch_{0};
  // Gate used only by the naive GC baseline: upserts shared, GC exclusive.
  sync::SharedMutex naive_gate_{"tree.naive_gate"};

  // All buffer nodes ever created (owned; freed in the destructor — dead
  // nodes stay allocated so optimistic readers never touch freed memory).
  mutable sync::Mutex all_bns_mu_{"tree.all_bns"};
  std::vector<BufferNode*> all_bns_ GUARDED_BY(all_bns_mu_);
  std::atomic<uint64_t> live_bn_count_{0};

  std::atomic<uint64_t> dram_hits_{0};
  std::atomic<uint64_t> buffer_flushes_{0};
  std::atomic<uint64_t> splits_{0};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> gc_rounds_{0};
  // Live log bytes right after the last GC round (hysteresis floor).
  std::atomic<uint64_t> post_gc_live_bytes_{0};
  RecoveryPhases recovery_phases_;  // of the last Recover(), written before recovered_

  // --- GC scheduling state (DESIGN.md §10) ------------------------------------
  // The socket of the root record: the tree's boot, replay and GC contexts
  // run there.
  int home_socket_ = 0;
  // The tree-owned context all GC PM traffic is charged to (fig14's GC cost
  // model), and the round in progress, serialized by gc_tick_mu_.
  std::unique_ptr<pmsim::ThreadContext> gc_ctx_;
  std::optional<LocalityAwareGcRound> gc_round_;
  std::atomic<bool> gc_round_active_{false};  // gc_round_ holds a round
  uint64_t gc_span_ns_ = 0;  // S: media service time of one span's 4 KiB
  sync::Mutex gc_tick_mu_{"tree.gc_tick"};
  // Upserts since creation; every gc_quantum_ops-th one checks the trigger.
  std::atomic<uint64_t> gc_op_counter_{0};
  // Completed GC rounds as fence-count windows; recorded only while a crash
  // injector is installed (crash-matrix runs), so the hot path never locks.
  mutable sync::Mutex gc_windows_mu_{"tree.gc_windows"};
  std::vector<GcFenceWindow> gc_fence_windows_ GUARDED_BY(gc_windows_mu_);
};

}  // namespace cclbt::core

#endif  // SRC_CORE_CCL_BTREE_H_
