#include "src/pmsim/lockcheck.h"

#include <algorithm>
#include <cstring>

#include "src/pmsim/config.h"
#include "src/pmsim/device.h"
#include "src/pmsim/pmcheck.h"
#include "src/pmsim/thread_context.h"
#include "src/trace/trace.h"

namespace cclbt::pmsim {
namespace {

// Worker id stamped on events raised outside any bound ThreadContext (static
// registries touched from the main thread, test scaffolding).
constexpr uint16_t kNoWorker = 0xFFFF;

// ---------------------------------------------------------------------------
// Per-OS-thread shadow state. Correctness of thread-locals here rests on a
// structural property of the codebase: a logical worker's operation runs to
// completion on one OS thread before pmsim::VirtualWorkers rebinds the thread
// to another context (SetCurrent), and no lock is ever held across such a
// rebind — locks are acquired and released inside a single Upsert/Lookup/GC
// round or replay step. So "locks held by this OS thread" and "locks held by
// the current logical worker" coincide at every event the checker sees.
// ---------------------------------------------------------------------------

struct HeldLock {
  const void* lock = nullptr;
  const char* name = "";
  sync::LockKind kind = sync::LockKind::kMutex;
  bool exclusive = false;
};

// Deep enough for the repo's worst real nesting (tree mutex → bn latch →
// DIMM spinlock → trace ring ≈ 4) with a wide margin; overflow entries are
// dropped, which can only cause missed diagnostics, never false ones.
constexpr size_t kMaxHeld = 32;

thread_local HeldLock tl_held[kMaxHeld];
thread_local size_t tl_held_count = 0;

uint16_t CurrentWorker() {
  ThreadContext* ctx = ThreadContext::Current();
  return ctx ? static_cast<uint16_t>(ctx->worker_id()) : kNoWorker;
}

}  // namespace

const char* CheckClassName(LockCheckClass cls) {
  switch (cls) {
    case LockCheckClass::kUnlockedWrite: return "unlocked_write";
    case LockCheckClass::kLocksetEmpty: return "lockset_empty";
    case LockCheckClass::kSeqWriteNoBump: return "seq_write_no_bump";
    case LockCheckClass::kLockCycle: return "lock_cycle";
    case LockCheckClass::kFencePublishGap: return "fence_publish_gap";
    case LockCheckClass::kCount: break;
  }
  return "?";
}

const char* CheckEventName(LockCheckEventKind kind) {
  switch (kind) {
    case LockCheckEventKind::kAcquire: return "acquire";
    case LockCheckEventKind::kRelease: return "release";
    case LockCheckEventKind::kSeqBegin: return "seqbegin";
    case LockCheckEventKind::kSeqRetire: return "seqretire";
    case LockCheckEventKind::kWrite: return "write";
    case LockCheckEventKind::kRead: return "read";
    case LockCheckEventKind::kFence: return "fence";
    case LockCheckEventKind::kReset: return "reset";
    case LockCheckEventKind::kCrash: return "crash";
  }
  return "?";
}

// --- free function ----------------------------------------------------------

void LockCheckResetRange(const void* addr, size_t len) {
  ThreadContext* ctx = ThreadContext::Current();
  if (ctx == nullptr) {
    return;
  }
  LockCheck* lc = ctx->device().lockcheck();
  if (lc == nullptr || !ctx->device().Contains(addr)) {
    return;
  }
  lc->ResetRange(ctx->device().OffsetOf(addr), len);
}

// --- LockCheck --------------------------------------------------------------

LockCheck::LockCheck(PmDevice& device) : device_(device) {
  observer_installed_ = sync::InstallObserver(this);
  // If another enabled device already owns the observer slot (tests building
  // two checked devices), this instance still sees its own PmDevice hooks;
  // only the lock-event stream goes to the first checker. Deterministic
  // either way — installation order is program order.
}

LockCheck::~LockCheck() {
  if (observer_installed_) {
    sync::RemoveObserver(this);
  }
}

uint32_t LockCheck::InternLocked(const void* lock, const char* name, sync::LockKind kind) {
  auto [it, inserted] = lock_ids_.try_emplace(lock, static_cast<uint32_t>(locks_.size()));
  if (inserted) {
    locks_.push_back(LockInfo{name, kind});
  } else {
    // Address reuse after destruction (baseline handle churn): rebind the
    // slot to the new identity rather than reporting against a stale name.
    locks_[it->second] = LockInfo{name, kind};
  }
  return it->second;
}

uint32_t LockCheck::InternNameLocked(const char* name) {
  auto [it, inserted] = name_ids_.try_emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) {
    names_.push_back(name);
    order_adj_.emplace_back();
  }
  return it->second;
}

bool LockCheck::ReachableLocked(uint32_t from_name, uint32_t to_name) const {
  if (from_name == to_name) {
    return true;
  }
  std::vector<bool> visited(names_.size(), false);
  std::vector<uint32_t> stack = {from_name};
  visited[from_name] = true;
  while (!stack.empty()) {
    uint32_t n = stack.back();
    stack.pop_back();
    for (uint32_t next : order_adj_[n]) {
      if (next == to_name) {
        return true;
      }
      if (!visited[next]) {
        visited[next] = true;
        stack.push_back(next);
      }
    }
  }
  return false;
}

void LockCheck::AddOrderEdgeLocked(uint32_t from_name, uint32_t to_name,
                                   trace::Component comp, uint16_t worker) {
  if (from_name == to_name) {
    // Same-name edges are key-ordered sibling chains by convention
    // (TryMergeLeft locks bn latches in key order); the checker cannot rank
    // instances, so it trusts the convention rather than reporting every
    // sibling pair as a cycle.
    return;
  }
  std::vector<uint32_t>& adj = order_adj_[from_name];
  if (std::find(adj.begin(), adj.end(), to_name) != adj.end()) {
    return;  // known edge; any cycle it closes was reported when it was new
  }
  // New edge from→to closes a cycle iff `from` is already reachable from
  // `to`. Report before inserting so the diagnostic names the edge that
  // completed the cycle.
  if (ReachableLocked(to_name, from_name)) {
    DiagLocked(LockCheckClass::kLockCycle, 0, comp, worker, names_[from_name],
               names_[to_name], "cycle-closing-edge", /*info=*/false);
  }
  adj.push_back(to_name);
  order_edges_++;
}

void LockCheck::AppendEventLocked(LockCheckEventKind kind, trace::Component comp,
                                  uint16_t worker, const char* lock, uint64_t detail) {
  core_.Record(LockCheckEvent{{kind, comp, worker, detail}, lock});
}

void LockCheck::DiagLocked(LockCheckClass cls, uint64_t line, trace::Component comp,
                           uint16_t worker, const char* lock, const char* lock2,
                           const char* detail, bool info) {
  LockCheckDiagnostic* d = core_.File(cls, info ? CheckAction::kInfo : CheckAction::kReport,
                                      line, comp, worker, detail);
  if (d != nullptr) {
    d->lock = lock;
    d->lock2 = lock2;
  }
}

// --- sync::LockObserver -----------------------------------------------------

void LockCheck::OnLockAcquire(const void* lock, const char* name, sync::LockKind kind,
                              bool exclusive, bool trylock) {
  const uint16_t worker = CurrentWorker();
  const trace::Component comp = trace::CurrentComponent();
  {
    std::lock_guard<CheckerMutex> lk(mu_);
    InternLocked(lock, name, kind);
    if (!trylock) {
      // A blocking acquire can wait on every lock currently held by this
      // thread; record the ordering edges (held → acquired). Try-acquires
      // cannot block and add no edges.
      const uint32_t to = InternNameLocked(name);
      for (size_t i = 0; i < tl_held_count; ++i) {
        AddOrderEdgeLocked(InternNameLocked(tl_held[i].name), to, comp, worker);
      }
    }
    if (kind != sync::LockKind::kSpin) {
      // Hot spinlocks (per-DIMM XPBuffer, trace rings) fire once per flush;
      // recording them would flood the 64-entry ring with noise. They still
      // feed the order graph and the held stack above/below.
      AppendEventLocked(LockCheckEventKind::kAcquire, comp, worker, name,
                        exclusive ? 1 : 0);
    }
  }
  if (tl_held_count < kMaxHeld) {
    tl_held[tl_held_count++] = HeldLock{lock, name, kind, exclusive};
  }
}

void LockCheck::OnLockRelease(const void* lock, const char* name, sync::LockKind kind,
                              bool exclusive) {
  // Innermost-first scan: recursive shared holds release in LIFO order.
  for (size_t i = tl_held_count; i > 0; --i) {
    if (tl_held[i - 1].lock == lock && tl_held[i - 1].exclusive == exclusive) {
      std::memmove(&tl_held[i - 1], &tl_held[i], (tl_held_count - i) * sizeof(HeldLock));
      tl_held_count--;
      break;
    }
    // A release with no matching held entry is ignored: the lock may have
    // been acquired before this checker was installed (device construction
    // races tree setup in tests), or the stack overflowed. Both can only
    // lose information, never invent it.
  }
  if (kind == sync::LockKind::kSpin) {
    return;
  }
  const uint16_t worker = CurrentWorker();
  std::lock_guard<CheckerMutex> lk(mu_);
  AppendEventLocked(LockCheckEventKind::kRelease, trace::CurrentComponent(), worker,
                    name, exclusive ? 1 : 0);
}

void LockCheck::OnSeqReadBegin(const void* lock, const char* name) {
  const uint16_t worker = CurrentWorker();
  std::lock_guard<CheckerMutex> lk(mu_);
  InternLocked(lock, name, sync::LockKind::kSeqLock);
  seq_read_sections_++;
  AppendEventLocked(LockCheckEventKind::kSeqBegin, trace::CurrentComponent(), worker,
                    name, 0);
}

void LockCheck::OnSeqReadRetire(const void* lock, const char* name, bool validated) {
  (void)lock;
  const uint16_t worker = CurrentWorker();
  std::lock_guard<CheckerMutex> lk(mu_);
  if (!validated) {
    seq_validate_failures_++;
  }
  AppendEventLocked(LockCheckEventKind::kSeqRetire, trace::CurrentComponent(), worker,
                    name, validated ? 1 : 0);
}

// --- PmDevice hooks ---------------------------------------------------------

void LockCheck::OnPmWrite(const ThreadContext& ctx, uintptr_t line) {
  const auto worker = static_cast<uint16_t>(ctx.worker_id());
  const trace::Component comp = trace::CurrentComponent();

  // Exclusive locks held by the writing thread, gathered outside mu_ (the
  // thread-local stack needs no lock). Shared holds are deliberately
  // excluded: a shared hold cannot justify a *write*.
  const HeldLock* held_excl[kMaxHeld];
  size_t n_held = 0;
  for (size_t i = 0; i < tl_held_count; ++i) {
    if (tl_held[i].exclusive) {
      held_excl[n_held++] = &tl_held[i];
    }
  }

  std::lock_guard<CheckerMutex> lk(mu_);
  AppendEventLocked(LockCheckEventKind::kWrite, comp, worker, "", line);

  if (live_contexts_.load(std::memory_order_relaxed) <= 1) {
    // Single-threaded phase (pool format, recovery boot): the sole live
    // worker owns everything it writes, whatever its lock discipline.
    LineRec& rec = lines_[line];
    rec.state = LineState::kExclusive;
    rec.owner = worker;
    rec.nlocks = kLocksetUninit;
    return;
  }

  auto [it, inserted] = lines_.try_emplace(line);
  LineRec& rec = it->second;
  if (inserted) {
    rec.owner = worker;  // first access: exclusively owned
    return;
  }

  if (rec.state != LineState::kSharedModified) {
    if (rec.state == LineState::kExclusive && rec.owner == worker) {
      return;  // still single-writer
    }
    // First write by a second party: the line is now shared-modified and the
    // candidate lockset starts as everything exclusively held right now.
    rec.state = LineState::kSharedModified;
    rec.owner = worker;
    rec.nlocks = 0;
    for (size_t i = 0; i < n_held && rec.nlocks < kMaxLockset; ++i) {
      rec.lockset[rec.nlocks++] =
          InternLocked(held_excl[i]->lock, held_excl[i]->name, held_excl[i]->kind);
    }
    if (rec.nlocks == 0) {
      DiagLocked(LockCheckClass::kUnlockedWrite, line, comp, worker, "none", "none",
                 "multi-worker-write-holds-no-exclusive-lock", /*info=*/false);
      rec.reported = true;
    }
    return;
  }

  if (rec.reported) {
    return;  // one lockset diagnostic per line
  }
  if (rec.nlocks == kLocksetUninit) {
    rec.nlocks = 0;  // defensive; SharedModified always has an initialized set
  }

  // Eraser step: C ← C ∩ held. Track what the intersection removed so the
  // diagnostic can name the lock the writer *used* to hold.
  uint32_t removed[kMaxLockset];
  uint8_t n_removed = 0;
  uint32_t kept[kMaxLockset];
  uint8_t n_kept = 0;
  for (uint8_t i = 0; i < rec.nlocks; ++i) {
    const uint32_t id = rec.lockset[i];
    bool held_now = false;
    for (size_t j = 0; j < n_held; ++j) {
      auto hit = lock_ids_.find(held_excl[j]->lock);
      if (hit != lock_ids_.end() && hit->second == id) {
        held_now = true;
        break;
      }
    }
    if (held_now) {
      kept[n_kept++] = id;
    } else {
      removed[n_removed++] = id;
    }
  }
  const uint8_t old_n = rec.nlocks;
  rec.nlocks = n_kept;
  std::copy(kept, kept + n_kept, rec.lockset.begin());

  if (old_n != 0 && n_kept == 0) {
    rec.reported = true;
    if (n_held == 0) {
      DiagLocked(LockCheckClass::kUnlockedWrite, line, comp, worker,
                 locks_[removed[0]].name, "none", "write-holds-no-exclusive-lock",
                 /*info=*/false);
      return;
    }
    // Prefer naming a dropped seqlock: writing seqlock-guarded data without
    // the version bump leaves optimistic readers blind to the mutation.
    for (uint8_t i = 0; i < n_removed; ++i) {
      if (locks_[removed[i]].kind == sync::LockKind::kSeqLock) {
        DiagLocked(LockCheckClass::kSeqWriteNoBump, line, comp, worker,
                   locks_[removed[i]].name, "none", "write-without-version-bump",
                   /*info=*/false);
        return;
      }
    }
    DiagLocked(LockCheckClass::kLocksetEmpty, line, comp, worker,
               locks_[removed[0]].name, "none", "no-common-lock-across-writers",
               /*info=*/false);
  }
}

void LockCheck::OnPmRead(const ThreadContext& ctx, uintptr_t offset, size_t len) {
  if (LockCheckExpect::ActiveFor(LockCheckClass::kLocksetEmpty)) {
    // Reads inside an Expect(kLocksetEmpty) scope are synchronized by a
    // protocol the checker cannot see (recovery's parallel WAL scan orders by
    // timestamp, not locks); they must not demote lines to Shared.
    return;
  }
  const auto worker = static_cast<uint16_t>(ctx.worker_id());
  const uintptr_t first = offset & ~static_cast<uintptr_t>(kCachelineBytes - 1);
  const uintptr_t last =
      (offset + (len == 0 ? 0 : len - 1)) & ~static_cast<uintptr_t>(kCachelineBytes - 1);

  std::lock_guard<CheckerMutex> lk(mu_);
  AppendEventLocked(LockCheckEventKind::kRead, trace::CurrentComponent(), worker, "",
                    first);
  if (live_contexts_.load(std::memory_order_relaxed) <= 1) {
    return;
  }
  for (uintptr_t line = first; line <= last; line += kCachelineBytes) {
    auto [it, inserted] = lines_.try_emplace(line);
    LineRec& rec = it->second;
    if (inserted) {
      rec.owner = worker;
    } else if (rec.state == LineState::kExclusive && rec.owner != worker) {
      // Reads never refine the candidate lockset (optimistic lockless
      // readers are the design here, validated by seqlocks); they only move
      // the line out of the single-writer exemption.
      rec.state = LineState::kShared;
    }
  }
}

void LockCheck::OnFencePending(const ThreadContext& ctx,
                               const std::vector<uintptr_t>& pending,
                               trace::Component comp, const PmCheck* pmcheck) {
  const auto worker = static_cast<uint16_t>(ctx.worker_id());

  struct Candidate {
    uint64_t line;
    const char* lock;
  };
  std::vector<Candidate> candidates;
  {
    std::lock_guard<CheckerMutex> lk(mu_);
    AppendEventLocked(LockCheckEventKind::kFence, comp, worker, "", pending.size());
    // Interned ids of everything held (any mode — even a shared hold keeps
    // other writers out for the duration of the publish).
    uint32_t held_ids[kMaxHeld];
    size_t n_held = 0;
    for (size_t i = 0; i < tl_held_count; ++i) {
      auto hit = lock_ids_.find(tl_held[i].lock);
      if (hit != lock_ids_.end()) {
        held_ids[n_held++] = hit->second;
      }
    }
    for (uintptr_t line : pending) {
      auto it = lines_.find(line);
      if (it == lines_.end()) {
        continue;
      }
      LineRec& rec = it->second;
      if (rec.state != LineState::kSharedModified || rec.fence_reported ||
          rec.nlocks == 0 || rec.nlocks == kLocksetUninit) {
        continue;
      }
      bool any_held = false;
      for (uint8_t i = 0; i < rec.nlocks && !any_held; ++i) {
        for (size_t j = 0; j < n_held; ++j) {
          if (held_ids[j] == rec.lockset[i]) {
            any_held = true;
            break;
          }
        }
      }
      if (!any_held) {
        // The lock that consistently protected this line was released before
        // the fence that publishes it: another thread may slip in and
        // redirty the line mid-publish.
        rec.fence_reported = true;
        candidates.push_back(Candidate{line, locks_[rec.lockset[0]].name});
      }
    }
  }
  if (candidates.empty()) {
    return;
  }
  // Cross-check against pmcheck's shadow state *outside* our mutex (its hooks
  // never call back into lockcheck, but the one-way mu_ ordering keeps the
  // two checkers trivially deadlock-free). A confirmed redirty upgrades the
  // finding from informational to a violation: the race window didn't just
  // exist, something wrote into it.
  for (const Candidate& c : candidates) {
    const bool redirtied = pmcheck != nullptr && pmcheck->LineRedirtiedSinceFlush(c.line);
    std::lock_guard<CheckerMutex> lk(mu_);
    DiagLocked(LockCheckClass::kFencePublishGap, c.line, comp, worker, c.lock, "none",
               redirtied ? "redirtied-since-flush" : "publish-window-unprotected",
               /*info=*/!redirtied);
  }
}

void LockCheck::OnCrash() {
  std::lock_guard<CheckerMutex> lk(mu_);
  AppendEventLocked(LockCheckEventKind::kCrash, trace::CurrentComponent(),
                    CurrentWorker(), "", 0);
  // Line history dies with the working image; the order graph and counters
  // describe the whole run and survive.
  lines_.clear();
}

void LockCheck::OnContextCount(size_t live) {
  live_contexts_.store(live, std::memory_order_relaxed);
}

void LockCheck::ResetRange(uintptr_t offset, size_t len) {
  if (len == 0) {
    return;
  }
  const uintptr_t first = offset & ~static_cast<uintptr_t>(kCachelineBytes - 1);
  const uintptr_t last =
      (offset + len - 1) & ~static_cast<uintptr_t>(kCachelineBytes - 1);
  std::lock_guard<CheckerMutex> lk(mu_);
  AppendEventLocked(LockCheckEventKind::kReset, trace::CurrentComponent(),
                    CurrentWorker(), "", first);
  for (uintptr_t line = first; line <= last; line += kCachelineBytes) {
    lines_.erase(line);
  }
}

LockCheckReport LockCheck::Snapshot() const {
  std::lock_guard<CheckerMutex> lk(mu_);
  return core_.Snapshot({{"locks_tracked", locks_.size()},
                         {"lines_tracked", lines_.size()},
                         {"order_edges", order_edges_},
                         {"seq_read_sections", seq_read_sections_},
                         {"seq_validate_failures", seq_validate_failures_}});
}

}  // namespace cclbt::pmsim
