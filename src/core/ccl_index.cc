#include "src/core/ccl_index.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "src/pmsim/crash_injector.h"
#include "src/pmsim/lockcheck.h"
#include "src/pmsim/virtual_workers.h"
#include "src/trace/trace.h"

namespace cclbt::core {

CclIndex::CclIndex(kvindex::Runtime& runtime, const TreeOptions& options,
                   kvindex::Lifecycle lifecycle, int root_slot, uint64_t magic, size_t own_words)
    : rt_(runtime),
      options_(options),
      lifecycle_(lifecycle),
      root_slot_(root_slot),
      magic_(magic),
      own_words_(own_words) {
  assert(options_.nbatch >= 0 && options_.nbatch <= 6);
  assert(own_words_ >= 1 && own_words_ <= kMaxOwnWords);
}

// --- lifecycle -------------------------------------------------------------------

void CclIndex::Create() {
  assert(lifecycle_ == kvindex::Lifecycle::kCreate);
  // The index's home is the socket of the context that builds it (socket 0
  // with none): the root record and the formatted structure live there, and
  // its GC and recovery contexts run there.
  if (const pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current()) {
    home_socket_ = ctx->socket();
  }
  pmsim::ThreadContext boot_ctx(rt_.device(), home_socket_, /*worker_id=*/0);

  pmem::SlabAllocator::Options slab_options;
  slab_options.slot_bytes = kLeafBytes;
  leaf_slab_ = pmem::SlabAllocator::Create(rt_.pool(), slab_options);
  log_slab_ = pmem::SlabAllocator::Create(rt_.pool(), kLogSlabOptions);
  wals_ = std::make_unique<WalSet>(*log_slab_, options_.max_workers);

  uint64_t own[kMaxOwnWords] = {};
  Format(own);

  auto* root = static_cast<uint64_t*>(rt_.pool().AllocateRaw(root_bytes(), home_socket_));
  assert(root != nullptr);
  root[0] = magic_;
  std::copy_n(own, own_words_, root + 1);
  auto* common = reinterpret_cast<CommonRoot*>(root + 1 + own_words_);
  common->leaf_registry_offset = leaf_slab_->registry_offset();
  common->log_registry_offset = log_slab_->registry_offset();
  common->ts_floor = 0;
  pmsim::Persist(root, root_bytes());
  rt_.pool().SetAppRoot(root_slot_, rt_.pool().ToOffset(root));

  InitGc();
}

bool CclIndex::Recover(kvindex::Runtime& runtime, int recovery_threads) {
  assert(&runtime == &rt_ && "Recover must use the runtime the index was constructed with");
  (void)runtime;
  if (lifecycle_ != kvindex::Lifecycle::kAttach || recovered_) {
    return false;
  }
  // 0: the pool was never formatted with this index.
  const uint64_t root_offset = rt_.pool().GetAppRoot(root_slot_);
  if (root_offset == 0 || !rt_.pool().Holds(root_offset, root_bytes())) {
    return false;
  }
  auto* root = static_cast<uint64_t*>(rt_.pool().ToAddr(root_offset));
  if (root[0] != magic_) {
    return false;
  }

  // Recovery runs where the index lives, so its reads of the leaves and logs
  // the index's workers wrote there are local.
  home_socket_ = rt_.device().SocketOf(root_offset);
  pmsim::ThreadContext boot_ctx(rt_.device(), home_socket_, /*worker_id=*/0);
  const uint64_t boot_start = boot_ctx.now_ns();
  pmsim::ReadPm(root, root_bytes());

  auto* common = reinterpret_cast<CommonRoot*>(root + 1 + own_words_);
  pmem::SlabAllocator::Options slab_options;
  slab_options.slot_bytes = kLeafBytes;
  leaf_slab_ = pmem::SlabAllocator::Open(rt_.pool(), common->leaf_registry_offset, slab_options);
  log_slab_ = pmem::SlabAllocator::Open(rt_.pool(), common->log_registry_offset, kLogSlabOptions);
  if (leaf_slab_ == nullptr || log_slab_ == nullptr) {
    return false;
  }
  wals_ = std::make_unique<WalSet>(*log_slab_, options_.max_workers);

  uint64_t max_ts = common->ts_floor;
  if (!Rebuild(root + 1, common->ts_floor, &max_ts)) {
    return false;
  }
  RecoveryPhases phases;
  phases.rebuild_ns = boot_ctx.now_ns() - boot_start;
  // Timestamps taken above the new floor order after every one read here,
  // so no leaf or bucket timestamp is ever rewritten.
  ts_floor_ = Replay(recovery_threads, max_ts, &common->ts_floor, &phases);
  recovery_phases_ = phases;
  recovered_ = true;
  // GC may only start now: every earlier return leaves the instance without
  // a GC context, so a failed recovery never runs a GC round.
  InitGc();
  return true;
}

// --- write path --------------------------------------------------------------------

void CclIndex::Upsert(uint64_t key, uint64_t value) {
  assert(key != 0 && "key 0 is reserved (the tree's head sentinel separator)");
  if (options_.gc_mode == GcMode::kNaive) {
    sync::SharedLockGuard<sync::SharedMutex> gate(naive_gate_);
    UpsertLocked(key, value);
  } else {
    UpsertLocked(key, value);
  }
  // Cooperative GC quantum, outside the naive gate (NaiveGc takes it
  // exclusively; scheduling from inside the shared section would deadlock).
  if (options_.gc_quantum_ops > 0 && options_.gc_mode != GcMode::kNone) {
    uint64_t n = gc_op_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % static_cast<uint64_t>(options_.gc_quantum_ops) == 0) {
      GcTick();
    }
  }
}

void CclIndex::UpsertLocked(uint64_t key, uint64_t value) {
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  assert(ctx != nullptr);
  BufferNode* bn = LockNode(key);
  // The global epoch must be read inside the critical section: the GC flips
  // it and then visits every buffer node under its lock, so any slot tagged
  // with the old epoch here is guaranteed to be seen by the GC scan (§3.4).
  uint32_t epoch = global_epoch_.load(std::memory_order_acquire);
  ChargeDram(static_cast<uint64_t>(bn->nbatch()));  // the slot probe
  const uint64_t ts = Timestamp();
  // A trigger write flushes everything plus this KV in one XPLine batch.
  const bool flushed = bn->Upsert(
      key, value, epoch, !options_.write_conservative_logging,
      [&] { return wals_->Append(ctx->worker_id(), static_cast<int>(epoch), key, value, ts); },
      [&](kvindex::KeyValue* batch, int n) { FlushBatch(bn, batch, n, ts); });
  AfterUpsert(bn, flushed);
}

bool CclIndex::Remove(uint64_t key) {
  Upsert(key, kTombstone);
  return true;
}

void CclIndex::FlushBatch(BufferNode* bn, kvindex::KeyValue* batch, int n, uint64_t ts) {
  trace::TraceScope scope(trace::Component::kBufferNode);
  trace::Emit(trace::EventType::kBufferFlush, static_cast<uint64_t>(n));
  WriteBatch(bn, batch, n, ts);
  buffer_flushes_.fetch_add(1, std::memory_order_relaxed);
}

void CclIndex::FlushNode(BufferNode* bn) {
  const uint64_t ts = Timestamp();
  bn->Flush({}, [&](kvindex::KeyValue* batch, int n) { FlushBatch(bn, batch, n, ts); });
}

void CclIndex::FlushAll() {
  assert(pmsim::ThreadContext::Current() != nullptr);
  for (BufferNode* bn : Nodes()) {
    bn->Lock();
    if (!bn->dead() && bn->pos() > 0) {
      FlushNode(bn);
    }
    bn->Unlock();
  }
}

// --- GC ----------------------------------------------------------------------------

bool CclIndex::GcTriggerReached() const {
  const uint64_t data = data_bytes();
  if (data == 0) {
    return false;
  }
  const uint64_t live = wals_->live_bytes();
  if (live * 100 <= data * static_cast<uint64_t>(options_.th_log_pct)) {
    return false;
  }
  // Hysteresis: a GC round cannot shrink the log below the still-buffered
  // entries (its floor). Without re-arming only after the log has grown well
  // past the previous floor, a buffer-heavy index whose floor sits above
  // TH_log would garbage-collect in a busy loop.
  return live >= 2 * post_gc_live_bytes_.load(std::memory_order_relaxed);
}

void CclIndex::InitGc() {
  if (options_.gc_mode == GcMode::kNone) {
    return;
  }
  // Deterministic participant: an index-owned context that all GC PM traffic
  // is charged to, whether spans come from the cooperative quantum or from
  // explicit GcTick() callers (tests). Constructed with no thread-local
  // current installed so the context is bound to no OS thread and carries no
  // dangling `previous_` restore target.
  pmsim::ThreadContext* saved = pmsim::ThreadContext::Current();
  pmsim::ThreadContext::SetCurrent(nullptr);
  gc_ctx_ = std::make_unique<pmsim::ThreadContext>(rt_.device(), home_socket_,
                                                   /*worker_id=*/options_.max_workers - 1);
  pmsim::ThreadContext::SetCurrent(saved);
  gc_span_ns_ = rt_.device().MediaWriteServiceNs(kGcSpanEntries * sizeof(LogEntry));
}

bool CclIndex::GcTick() {
  if (gc_ctx_ == nullptr ||
      (!gc_round_active_.load(std::memory_order_acquire) && !GcTriggerReached())) {
    return false;
  }
  sync::TryLockGuard<sync::Mutex> tick(gc_tick_mu_);
  if (!tick.owns()) {
    return false;  // another worker is inside a tick; it covers this one
  }
  const bool naive = options_.gc_mode == GcMode::kNaive;
  const pmsim::ThreadContext* caller = pmsim::ThreadContext::Current();
  uint64_t start = gc_ctx_->now_ns();
  if (naive) {
    // Stop-the-world at the frontier of every live clock: the round happens
    // "now" in the simulated timeline, after the work that tripped the
    // trigger, not at whatever stale time the last round ended.
    start = std::max(start, rt_.device().MaxContextClockNs());
  } else if (caller != nullptr) {
    // A span starts one span's media service time before the caller's
    // present, so it ends by then if the DIMM it writes is free: it never
    // reserves DIMM time in the foreground's future.
    if (start + gc_span_ns_ > caller->now_ns()) {
      return false;  // the GC context is still busy with its last span
    }
    start = caller->now_ns() - gc_span_ns_;
  }
  if (!gc_round_ && !GcTriggerReached()) {
    return false;  // the round that just finished already cleared it
  }
  gc_ctx_->ResetClock(start);
  // A crash injector may abort the span mid-stream (CrashPointReached):
  // restore the caller's context on every exit path.
  struct Restore {
    pmsim::ThreadContext* saved;
    ~Restore() { pmsim::ThreadContext::SetCurrent(saved); }
  } restore{pmsim::ThreadContext::Current()};
  pmsim::ThreadContext::SetCurrent(gc_ctx_.get());
  if (naive) {
    NaiveGc();
    // Every worker resumes only after the barrier ends.
    rt_.device().RaiseContextClocks(gc_ctx_->now_ns());
    return true;
  }
  if (!gc_round_) {
    BeginGcRound();
  }
  RunGcSpan();
  return true;
}

std::vector<CclIndex::GcFenceWindow> CclIndex::gc_fence_windows() const {
  sync::LockGuard<sync::Mutex> guard(gc_windows_mu_);
  return gc_fence_windows_;
}

bool CclIndex::RunGcOnce() {
  if (options_.gc_mode == GcMode::kNone) {
    return false;
  }
  sync::LockGuard<sync::Mutex> guard(gc_tick_mu_);
  if (options_.gc_mode == GcMode::kNaive) {
    NaiveGc();
    return true;
  }
  if (!gc_round_) {
    BeginGcRound();
  }
  LocalityAwareGcRound::Progress progress = LocalityAwareGcRound::Progress::kMore;
  while (progress == LocalityAwareGcRound::Progress::kMore) {
    progress = RunGcSpan();
  }
  return progress == LocalityAwareGcRound::Progress::kDone;
}

template <typename Work>
void CclIndex::InGcWindow(Work&& work) {
  // With a crash injector installed (crash-matrix runs only), record the
  // window so the matrix can schedule points that land inside GC's own
  // flush/fence stream.
  pmsim::CrashInjector* injector = rt_.device().crash_injector();
  const uint64_t first_fence = injector != nullptr ? injector->fences_observed() + 1 : 0;
  work();
  if (injector != nullptr) {
    uint64_t last_fence = injector->fences_observed();
    if (last_fence >= first_fence) {
      sync::LockGuard<sync::Mutex> guard(gc_windows_mu_);
      gc_fence_windows_.push_back({first_fence, last_fence});
    }
  }
}

void CclIndex::BeginGcRound() {
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  assert(ctx != nullptr);
  trace::TraceScope scope(trace::Component::kGc);
  trace::Emit(trace::EventType::kGcBegin, wals_->live_bytes());
  gc_round_.emplace(
      *wals_, ctx->worker_id(), global_epoch_, [this] { return Nodes(); },
      [this] { return Timestamp(); });
  gc_round_active_.store(true, std::memory_order_release);
}

LocalityAwareGcRound::Progress CclIndex::RunGcSpan() {
  LocalityAwareGcRound::Progress progress = LocalityAwareGcRound::Progress::kMore;
  InGcWindow([&] { progress = gc_round_->RunSpan(); });
  if (progress == LocalityAwareGcRound::Progress::kMore) {
    return progress;
  }
  gc_round_.reset();
  gc_round_active_.store(false, std::memory_order_release);
  // A round the log slab cut short freed nothing, so the log did not shrink:
  // its floor re-arms the trigger only once the log has doubled.
  post_gc_live_bytes_.store(wals_->live_bytes(), std::memory_order_relaxed);
  if (progress == LocalityAwareGcRound::Progress::kDone) {
    gc_rounds_.fetch_add(1, std::memory_order_relaxed);
  }
  trace::TraceScope scope(trace::Component::kGc);
  trace::Emit(trace::EventType::kGcEnd, wals_->live_bytes());
  return progress;
}

void CclIndex::NaiveGc() {
  // Paper §3.4 "Naive GC": stop foreground buffering/logging with a global
  // lock, flush every buffer node's pending KVs to its (random) leaf, then
  // recycle all log chunks.
  trace::TraceScope scope(trace::Component::kGc);
  trace::Emit(trace::EventType::kGcBegin, wals_->live_bytes());
  InGcWindow([this] {
    sync::LockGuard<sync::SharedMutex> gate(naive_gate_);
    FlushAll();
    wals_->ReleaseEpoch(0);
    wals_->ReleaseEpoch(1);
  });
  post_gc_live_bytes_.store(wals_->live_bytes(), std::memory_order_relaxed);
  gc_rounds_.fetch_add(1, std::memory_order_relaxed);
  trace::Emit(trace::EventType::kGcEnd, wals_->live_bytes());
}

// --- recovery ---------------------------------------------------------------------

uint64_t CclIndex::Replay(int threads, uint64_t max_ts, uint64_t* floor,
                          RecoveryPhases* phases) {
  assert(threads >= 1);
  std::vector<void*> chunks;
  log_slab_->ForEachSlot([&chunks](void* chunk) { chunks.push_back(chunk); });
  const auto n = static_cast<size_t>(threads);
  std::vector<LogEntry> entries;
  std::vector<char> active(chunks.size(), 0);  // chunks the scan found active
  std::vector<size_t> steps(n, 0);             // chunks each worker has scanned
  pmsim::ThreadContext* boot = pmsim::ThreadContext::Current();
  const uint64_t start = boot->now_ns();
  pmsim::VirtualWorkers workers(
      rt_.device(), threads, [socket = boot->socket()](int) { return socket; }, start);

  // Worker w scans chunks w, w + threads, ..., one per step.
  workers.Run([&](int w) {
    size_t c = static_cast<size_t>(w) + n * steps[static_cast<size_t>(w)]++;
    if (c < chunks.size()) {
      active[c] = WalSet::ScanChunk(
          chunks[c], [&entries](const LogEntry& entry) { entries.push_back(entry); });
    }
    return c + n < chunks.size();
  });
  const uint64_t scanned = workers.Barrier();

  // Every entry touches only its own key, so applying the newest entries in
  // key order ends in the state timestamp-ordered replay of all of them
  // would. Sorting and compacting in place keeps one copy of the log. The
  // filter routes each key's newest entry in key order: filtering as the
  // scan reads would route every entry in log order, a random descent each.
  std::sort(entries.begin(), entries.end(),
            [](const LogEntry& a, const LogEntry& b) { return a.key < b.key; });
  size_t kept = 0;
  for (size_t i = 0; i < entries.size();) {
    LogEntry newest = entries[i];  // the newest of this key's entries
    for (i++; i < entries.size() && entries[i].key == newest.key; i++) {
      if (entries[i].timestamp() > newest.timestamp()) {
        newest = entries[i];
      }
    }
    max_ts = std::max(max_ts, newest.timestamp());
    if (newest.timestamp() > NodeOf(newest.key)->recovery_orig_ts()) {
      entries[kept++] = newest;
    }
  }
  entries.resize(kept);

  // Recover visits the chunks in the order ForEachSlot listed them.
  size_t visited = 0;
  log_slab_->Recover([&](const void* chunk) {
    assert(chunk == chunks[visited]);
    (void)chunk;
    return active[visited++] != 0;
  });

  // Writes locked bn's staged KVs and `extra` in one batch that keeps every
  // timestamp, and empties the node: the write may split the leaf, and no
  // staged KV may stay behind in the half that no longer covers it.
  auto write_node = [this](BufferNode* bn, std::span<const LogEntry> extra) {
    kvindex::KeyValue batch[8];
    int count = bn->Unflushed(batch);
    for (const LogEntry& entry : extra) {
      batch[count++] = {entry.key, entry.value};
    }
    WriteBatch(bn, batch, count, /*ts=*/0);
    bn->Clear();
  };

  // Each step stages the next entries of one node, as a buffered upsert
  // would: the descent and the slot probe in DRAM, the KV into slot pos,
  // tagged with the current epoch. Every batch routes afresh, so the
  // entries after a split go to the half that covers them.
  const uint32_t epoch = global_epoch_.load(std::memory_order_acquire);
  const uint64_t dram_ns = rt_.device().config().cost.dram_access_ns;
  size_t next = 0;
  workers.Run([&](int /*w*/) {
    if (next == entries.size()) {
      return false;
    }
    BufferNode* bn = NodeOf(entries[next].key);
    bn->Lock();
    do {
      if (const int pos = bn->pos(); pos < bn->nbatch()) {
        pmsim::AdvanceCpu(static_cast<uint64_t>(8 + bn->nbatch()) * dram_ns);
        bn->Put(pos, entries[next].key, entries[next].value, epoch);
        next++;
        continue;
      }
      // A full node: its staged KVs and its next entries, up to 8, go to its
      // leaf or chain in one write.
      size_t end = next;
      while (end < entries.size() && end - next + static_cast<size_t>(bn->pos()) < 8 &&
             NodeOf(entries[end].key) == bn) {
        end++;
      }
      write_node(bn, {entries.data() + next, end - next});
      next = end;
    } while (next < entries.size() && NodeOf(entries[next].key) == bn);
    bn->Unlock();
    return next < entries.size();
  });
  const uint64_t applied = workers.Barrier();
  boot->ResetClock(applied);

  // Every copy is stamped above every timestamp read here, so it outranks
  // each old entry of its key in a later recovery. A round the log slab cuts
  // short leaves the KVs it could not copy staged, and their only durable
  // copy is still the old log: they go to their leaves before it is freed.
  LocalityAwareGcRound copy(
      *wals_, options_.max_workers - 1, global_epoch_, [this] { return Nodes(); },
      [this, max_ts] { return max_ts + rt_.ordo().Now(); });
  if (!copy.Finish()) {
    for (BufferNode* bn : Nodes()) {
      bn->Lock();
      if (bn->pos() > 0) {
        write_node(bn, {});
      }
      bn->Unlock();
    }
  }
  const uint64_t copy_end = boot->now_ns();

  if (max_ts != *floor) {
    *floor = max_ts;
    pmsim::Persist(floor, sizeof(*floor));
  }
  {
    // The free markers land in headers the pre-crash workers wrote; recovery
    // owns the whole image, which lockcheck cannot express as a lock.
    pmsim::LockCheckExpect reclaim_expect(pmsim::LockCheckClass::kUnlockedWrite);
    for (size_t c = 0; c < chunks.size(); c++) {
      if (active[c]) {
        auto* header = static_cast<LogChunkHeader*>(chunks[c]);
        header->state = kChunkFree;
        pmsim::Persist(&header->state, sizeof(header->state));
        log_slab_->Free(chunks[c]);
      }
    }
  }
  phases->scan_ns = scanned - start;
  phases->apply_ns = applied - scanned;
  phases->copy_ns = copy_end - applied;
  phases->reclaim_ns = boot->now_ns() - copy_end;
  return max_ts;
}

}  // namespace cclbt::core
