#include "src/pmsim/pmcheck.h"

#include <cstring>

#include "src/pmsim/device.h"
#include "src/pmsim/media_model.h"
#include "src/pmsim/thread_context.h"
#include "src/trace/trace.h"

namespace cclbt::pmsim {

namespace {
// Per-thread nesting depth of PmCheckExpect scopes, one slot per class.
// constinit: no TLS init guard on the ActiveFor fast path.
constinit thread_local int tl_expect_depth[kNumPmCheckClasses] = {};
}  // namespace

const char* PmCheckClassName(PmCheckClass cls) {
  switch (cls) {
    case PmCheckClass::kRedundantFlush: return "redundant_flush";
    case PmCheckClass::kUselessFence: return "useless_fence";
    case PmCheckClass::kDirtyAtFence: return "dirty_at_fence";
    case PmCheckClass::kUnflushedAtClose: return "unflushed_at_close";
    case PmCheckClass::kReadBeforeDurable: return "read_before_durable";
    case PmCheckClass::kCount: break;
  }
  return "?";
}

const char* PmCheckEventKindName(PmCheckEvent::Kind kind) {
  switch (kind) {
    case PmCheckEvent::Kind::kFlush: return "flush";
    case PmCheckEvent::Kind::kFence: return "fence";
    case PmCheckEvent::Kind::kRead: return "read";
    case PmCheckEvent::Kind::kCrash: return "crash";
    case PmCheckEvent::Kind::kClose: return "close";
  }
  return "?";
}

PmCheckExpect::PmCheckExpect(PmCheckClass cls) : cls_(cls) {
  tl_expect_depth[static_cast<int>(cls_)]++;
}

PmCheckExpect::~PmCheckExpect() { tl_expect_depth[static_cast<int>(cls_)]--; }

bool PmCheckExpect::ActiveFor(PmCheckClass cls) {
  return tl_expect_depth[static_cast<int>(cls)] > 0;
}

PmCheck::PmCheck(PmDevice& device)
    : device_(device),
      pool_(device.pool_.get()),
      shadow_(device.shadow_.get()),
      pool_bytes_(device.config_.pool_bytes),
      xpline_bytes_(device.config_.xpline_bytes) {
  // The device constructs its MediaModel before the checker, so the backend
  // rule table is final here.
  for (int c = 0; c < kNumPmCheckClasses; c++) {
    actions_[static_cast<size_t>(c)] =
        device.media().check_action(static_cast<PmCheckClass>(c));
  }
  lines_.reserve(1 << 14);
  diagnostics_.reserve(64);
}

uint64_t PmCheck::HashLine(const std::byte* line) {
  // FNV-1a over the 8 words of one cacheline; collision odds are irrelevant
  // at diagnostic scale and the hash never leaves the checker.
  uint64_t words[kCachelineBytes / sizeof(uint64_t)];
  std::memcpy(words, line, kCachelineBytes);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t w : words) {
    h = (h ^ w) * 0x100000001b3ULL;
  }
  return h;
}

void PmCheck::AppendEventLocked(PmCheckEvent::Kind kind, trace::Component comp, uint16_t worker,
                                uint64_t detail) {
  PmCheckEvent& slot = events_[events_seen_ % kEventRing];
  slot.kind = kind;
  slot.comp = comp;
  slot.worker = worker;
  slot.detail = detail;
  slot.fence_epoch = fence_epochs_;
  events_seen_++;
}

void PmCheck::DiagLocked(PmCheckClass cls, uint64_t line, trace::Component comp, uint16_t worker,
                         const char* detail) {
  const PmCheckAction action = actions_[static_cast<size_t>(cls)];
  if (action == PmCheckAction::kOff) {
    return;
  }
  if (PmCheckExpect::ActiveFor(cls)) {
    suppressed_[static_cast<int>(cls)]++;
    return;
  }
  const bool info = action == PmCheckAction::kInfo;
  if (info) {
    info_counts_[static_cast<int>(cls)]++;
    if (info_materialized_ >= kMaxInfoDiagnostics) {
      diagnostics_truncated_++;  // counted above, but the list is incomplete
      return;
    }
    info_materialized_++;
  } else {
    counts_[static_cast<int>(cls)]++;
    if (diagnostics_.size() - info_materialized_ >= kMaxDiagnostics) {
      diagnostics_truncated_++;
      return;
    }
  }
  PmCheckDiagnostic d;
  d.info = info;
  d.cls = cls;
  d.line = line;
  d.xpline = line / xpline_bytes_;
  d.dimm = device_.DimmOf(line);
  d.comp = comp;
  d.worker = worker;
  d.fence_epoch = fence_epochs_;
  d.detail = detail;
  size_t n = events_seen_ < kRecentEventsPerDiagnostic
                 ? static_cast<size_t>(events_seen_)
                 : kRecentEventsPerDiagnostic;
  d.recent.reserve(n);
  for (size_t i = 0; i < n; i++) {
    d.recent.push_back(events_[(events_seen_ - n + i) % kEventRing]);
  }
  diagnostics_.push_back(std::move(d));
}

void PmCheck::OnFlush(const ThreadContext& ctx, uintptr_t line, bool newly_pending) {
  const trace::Component comp = trace::CurrentComponent();
  const auto worker = static_cast<uint16_t>(ctx.worker_id());
  std::lock_guard<CheckerMutex> guard(mu_);
  AppendEventLocked(PmCheckEvent::Kind::kFlush, comp, worker, line);
  const uint64_t hash = HashLine(pool_ + line);
  LineRecord& rec = lines_[line];
  if (!newly_pending) {
    // Re-flush of a line already in this context's pending set: redundant
    // unless the content changed since the first flush (a legitimate
    // re-flush after a re-dirty, which also clears the dirty-at-fence risk).
    if (rec.pending && hash == rec.flush_hash) {
      DiagLocked(PmCheckClass::kRedundantFlush, line, comp, worker,
                 "reflush_of_pending_line_with_unchanged_content");
    }
  } else if (std::memcmp(pool_ + line, shadow_ + line, kCachelineBytes) == 0) {
    // Flush of a clean line: the working image already equals the durable
    // image, so the flush persists nothing (yet costs CPU + media traffic).
    DiagLocked(PmCheckClass::kRedundantFlush, line, comp, worker, "flush_of_clean_line");
  }
  rec.pending = true;
  rec.flush_hash = hash;
  rec.epoch = fence_epochs_ + 1;  // commits no earlier than the next fence
  rec.comp = comp;
  rec.worker = worker;
  rec.owner = &ctx;
  rec.close_reported = false;
}

void PmCheck::OnUselessFence(const ThreadContext& ctx) {
  const trace::Component comp = trace::CurrentComponent();
  const auto worker = static_cast<uint16_t>(ctx.worker_id());
  std::lock_guard<CheckerMutex> guard(mu_);
  fence_epochs_++;
  AppendEventLocked(PmCheckEvent::Kind::kFence, comp, worker, 0);
  DiagLocked(PmCheckClass::kUselessFence, 0, comp, worker, "fence_with_no_pending_lines");
}

void PmCheck::OnFlushFree(const ThreadContext& ctx, uintptr_t line) {
  const trace::Component comp = trace::CurrentComponent();
  const auto worker = static_cast<uint16_t>(ctx.worker_id());
  std::lock_guard<CheckerMutex> guard(mu_);
  AppendEventLocked(PmCheckEvent::Kind::kFlush, comp, worker, line);
  // Called before the device syncs the shadow copy, so a clean line here
  // means the flush persists nothing on *any* backend.
  if (std::memcmp(pool_ + line, shadow_ + line, kCachelineBytes) == 0) {
    DiagLocked(PmCheckClass::kRedundantFlush, line, comp, worker, "flush_of_clean_line");
  }
  // The line becomes durable at this flush (flush-free domain): keep the
  // record for class-4 attribution but never in a pending state.
  LineRecord& rec = lines_[line];
  rec.flush_hash = HashLine(pool_ + line);
  rec.epoch = fence_epochs_;
  rec.comp = comp;
  rec.worker = worker;
  rec.pending = false;
  rec.owner = nullptr;
  rec.close_reported = false;
}

void PmCheck::OnFenceFree(const ThreadContext& ctx) {
  const trace::Component comp = trace::CurrentComponent();
  const auto worker = static_cast<uint16_t>(ctx.worker_id());
  std::lock_guard<CheckerMutex> guard(mu_);
  fence_epochs_++;
  AppendEventLocked(PmCheckEvent::Kind::kFence, comp, worker, 0);
  DiagLocked(PmCheckClass::kUselessFence, 0, comp, worker, "fence_in_flush_free_domain");
}

void PmCheck::OnFenceCommit(const ThreadContext& ctx, const std::vector<uintptr_t>& pending,
                            trace::Component comp) {
  const auto worker = static_cast<uint16_t>(ctx.worker_id());
  std::lock_guard<CheckerMutex> guard(mu_);
  fence_epochs_++;
  AppendEventLocked(PmCheckEvent::Kind::kFence, comp, worker, pending.size());
  for (uintptr_t line : pending) {
    LineRecord& rec = lines_[line];
    if (rec.pending && HashLine(pool_ + line) != rec.flush_hash) {
      // The clwb captured the content at flush time; on real hardware the
      // re-dirtied bytes are NOT covered by this fence.
      DiagLocked(PmCheckClass::kDirtyAtFence, line, rec.comp, worker,
                 "line_redirtied_between_flush_and_fence");
    }
    rec.pending = false;
    rec.epoch = fence_epochs_;
    rec.owner = nullptr;
    rec.close_reported = false;
  }
}

void PmCheck::OnReadRange(const ThreadContext& ctx, uintptr_t offset, size_t len) {
  const trace::Component comp = trace::CurrentComponent();
  const auto worker = static_cast<uint16_t>(ctx.worker_id());
  const uintptr_t first = offset & ~(kCachelineBytes - 1);
  std::lock_guard<CheckerMutex> guard(mu_);
  AppendEventLocked(PmCheckEvent::Kind::kRead, comp, worker, first);
  for (uintptr_t line = first; line < offset + len; line += kCachelineBytes) {
    auto it = lines_.find(line);
    if (it != lines_.end() && it->second.pending && it->second.owner != &ctx) {
      // The owning context flushed the line but has not fenced: a crash
      // would revert it, so the reader may act on non-durable state.
      DiagLocked(PmCheckClass::kReadBeforeDurable, line, comp, worker,
                 "read_of_line_flush_pending_in_other_context");
    }
  }
}

void PmCheck::ScanUnflushedLocked(const char* detail_unflushed, const char* detail_pending) {
  // Chunked memcmp over the whole pool: untouched pages are lazily-mapped
  // zero pages in both images, so the scan is cheap and runs only at
  // close/crash time.
  constexpr size_t kChunk = 4096;
  for (size_t off = 0; off < pool_bytes_; off += kChunk) {
    size_t n = pool_bytes_ - off < kChunk ? pool_bytes_ - off : kChunk;
    if (std::memcmp(pool_ + off, shadow_ + off, n) == 0) {
      continue;
    }
    for (size_t line = off; line < off + n; line += kCachelineBytes) {
      if (std::memcmp(pool_ + line, shadow_ + line, kCachelineBytes) == 0) {
        continue;
      }
      LineRecord& rec = lines_[line];
      if (rec.close_reported) {
        continue;
      }
      DiagLocked(PmCheckClass::kUnflushedAtClose, line, rec.comp, rec.worker,
                 rec.pending ? detail_pending : detail_unflushed);
      rec.close_reported = true;
    }
  }
}

void PmCheck::OnCrash(bool injected) {
  std::lock_guard<CheckerMutex> guard(mu_);
  AppendEventLocked(PmCheckEvent::Kind::kCrash, trace::Component::kOther, 0, injected ? 1 : 0);
  if (!injected) {
    // A crash nobody scheduled: whatever is still dirty is data loss the
    // program did not plan for.
    ScanUnflushedLocked("line_stored_but_never_flushed_at_crash",
                        "line_flushed_but_never_fenced_at_crash");
  }
  // After Crash()/CrashTorn() the working image is restored from the shadow:
  // every line is Clean and all pending state is gone.
  lines_.clear();
}

void PmCheck::OnClose() {
  std::lock_guard<CheckerMutex> guard(mu_);
  AppendEventLocked(PmCheckEvent::Kind::kClose, trace::Component::kOther, 0, 0);
  ScanUnflushedLocked("line_stored_but_never_flushed_at_close",
                      "line_flushed_but_never_fenced_at_close");
}

bool PmCheck::LineRedirtiedSinceFlush(uintptr_t line) const {
  std::lock_guard<CheckerMutex> guard(mu_);
  auto it = lines_.find(line);
  if (it == lines_.end() || !it->second.pending) {
    return false;
  }
  return HashLine(pool_ + line) != it->second.flush_hash;
}

PmCheckReport PmCheck::Snapshot() const {
  std::lock_guard<CheckerMutex> guard(mu_);
  PmCheckReport report;
  report.enabled = true;
  report.counts = counts_;
  report.suppressed = suppressed_;
  report.info = info_counts_;
  report.fence_epochs = fence_epochs_;
  report.lines_tracked = lines_.size();
  report.diagnostics_truncated = diagnostics_truncated_;
  report.diagnostics = diagnostics_;
  return report;
}

}  // namespace cclbt::pmsim
