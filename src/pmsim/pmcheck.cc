#include "src/pmsim/pmcheck.h"

#include <cstring>

#include "src/pmsim/device.h"
#include "src/pmsim/media_model.h"
#include "src/pmsim/thread_context.h"
#include "src/trace/trace.h"

namespace cclbt::pmsim {

const char* CheckClassName(PmCheckClass cls) {
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

const char* CheckEventName(PmCheckEventKind kind) {
  switch (kind) {
    case PmCheckEventKind::kFlush: return "flush";
    case PmCheckEventKind::kFence: return "fence";
    case PmCheckEventKind::kRead: return "read";
    case PmCheckEventKind::kCrash: return "crash";
    case PmCheckEventKind::kClose: return "close";
  }
  return "?";
}

PmCheck::PmCheck(PmDevice& device)
    : device_(device),
      pool_(device.pool_.get()),
      shadow_(device.shadow_.get()),
      pool_bytes_(device.config_.pool_bytes),
      xpline_bytes_(device.config_.xpline_bytes) {
  // The device constructs its MediaModel before the checker, so the backend
  // rule table is final here.
  for (size_t c = 0; c < actions_.size(); c++) {
    actions_[c] = device.media().check_action(static_cast<PmCheckClass>(c));
  }
  lines_.reserve(1 << 14);
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

void PmCheck::AppendEventLocked(PmCheckEventKind kind, trace::Component comp, uint16_t worker,
                                uint64_t detail) {
  core_.Record(PmCheckEvent{{kind, comp, worker, detail}, fence_epochs_});
}

void PmCheck::DiagLocked(PmCheckClass cls, uint64_t line, trace::Component comp, uint16_t worker,
                         const char* detail) {
  PmCheckDiagnostic* d =
      core_.File(cls, actions_[static_cast<size_t>(cls)], line, comp, worker, detail);
  if (d != nullptr) {
    d->xpline = line / xpline_bytes_;
    d->dimm = device_.DimmOf(line);
    d->fence_epoch = fence_epochs_;
  }
}

void PmCheck::OnFlush(const ThreadContext& ctx, uintptr_t line, bool newly_pending) {
  const trace::Component comp = trace::CurrentComponent();
  const auto worker = static_cast<uint16_t>(ctx.worker_id());
  std::lock_guard<CheckerMutex> guard(mu_);
  AppendEventLocked(PmCheckEventKind::kFlush, comp, worker, line);
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
  AppendEventLocked(PmCheckEventKind::kFence, comp, worker, 0);
  DiagLocked(PmCheckClass::kUselessFence, 0, comp, worker, "fence_with_no_pending_lines");
}

void PmCheck::OnFlushFree(const ThreadContext& ctx, uintptr_t line) {
  const trace::Component comp = trace::CurrentComponent();
  const auto worker = static_cast<uint16_t>(ctx.worker_id());
  std::lock_guard<CheckerMutex> guard(mu_);
  AppendEventLocked(PmCheckEventKind::kFlush, comp, worker, line);
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
  AppendEventLocked(PmCheckEventKind::kFence, comp, worker, 0);
  DiagLocked(PmCheckClass::kUselessFence, 0, comp, worker, "fence_in_flush_free_domain");
}

void PmCheck::OnFenceCommit(const ThreadContext& ctx, const std::vector<uintptr_t>& pending,
                            trace::Component comp) {
  const auto worker = static_cast<uint16_t>(ctx.worker_id());
  std::lock_guard<CheckerMutex> guard(mu_);
  fence_epochs_++;
  AppendEventLocked(PmCheckEventKind::kFence, comp, worker, pending.size());
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
  AppendEventLocked(PmCheckEventKind::kRead, comp, worker, first);
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
  AppendEventLocked(PmCheckEventKind::kCrash, trace::Component::kOther, 0, injected ? 1 : 0);
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
  AppendEventLocked(PmCheckEventKind::kClose, trace::Component::kOther, 0, 0);
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
  return core_.Snapshot({{"fence_epochs", fence_epochs_}, {"lines_tracked", lines_.size()}});
}

}  // namespace cclbt::pmsim
