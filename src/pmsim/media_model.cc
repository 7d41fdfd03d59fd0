#include "src/pmsim/media_model.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string_view>

#include "src/pmsim/device.h"
#include "src/pmsim/thread_context.h"
#include "src/trace/trace.h"

namespace cclbt::pmsim {

const char* MediaBackendName(MediaBackend backend) {
  switch (backend) {
    case MediaBackend::kAuto: return "auto";
    case MediaBackend::kAdrOptane: return "adr";
    case MediaBackend::kEadr: return "eadr";
    case MediaBackend::kCxlMem: return "cxl";
  }
  return "?";
}

void ResolveMediaBackend(DeviceConfig& config) {
  if (config.backend == MediaBackend::kAuto) {
    if (const char* env = std::getenv("CCL_BACKEND"); env != nullptr && env[0] != '\0') {
      std::string_view selector(env);
      if (selector == "adr" || selector == "adr_optane") {
        config.backend = MediaBackend::kAdrOptane;
      } else if (selector == "eadr") {
        config.backend = MediaBackend::kEadr;
      } else if (selector == "cxl" || selector == "cxlmem") {
        config.backend = MediaBackend::kCxlMem;
        size_t page = 4096;
        if (const char* p = std::getenv("CCL_CXL_PAGE"); p != nullptr && p[0] != '\0') {
          size_t requested = std::strtoull(p, nullptr, 10);
          bool pow2 = requested != 0 && (requested & (requested - 1)) == 0;
          if (pow2 && requested >= kXplineBytes && requested <= 4096) {
            page = requested;
          } else {
            std::fprintf(stderr,
                         "pmsim: CCL_CXL_PAGE=%s is not a power of two in [%zu, 4096]; using %zu\n",
                         p, kXplineBytes, page);
          }
        }
        config.xpline_bytes = page;
        // Hold at least 64 media units regardless of page size, so the env
        // selector isolates the granularity effect (the same constant-units
        // choice as the extra_cxl page-size sweep).
        config.xpbuffer_bytes = std::max(config.xpbuffer_bytes, 64 * page);
      } else {
        std::fprintf(stderr,
                     "pmsim: unknown CCL_BACKEND=%s (expected adr, eadr or cxl); using adr\n", env);
      }
    }
  }
  if (config.backend == MediaBackend::kAuto) {
    config.backend = MediaBackend::kAdrOptane;
  }
}

MediaModel::~MediaModel() = default;

void MediaModel::PushLine(PmDevice& device, ThreadContext& ctx, uintptr_t line_offset,
                          trace::Component comp) {
  device.PushLine(ctx, line_offset, comp);
}

void MediaModel::PushAccountingOnly(PmDevice& device, uintptr_t line_offset) {
  device.PushThroughXpBufferAccountingOnly(line_offset);
}

std::byte* MediaModel::Pool(PmDevice& device) { return device.pool_.get(); }

void MediaModel::WriteShadowLine(PmDevice& device, uintptr_t line_offset, const std::byte* src) {
  if (device.shadow_.data != nullptr) {
    device.WriteShadowLine(line_offset, src);
  }
}

// --- EadrModel --------------------------------------------------------------

EadrModel::EadrModel(PmDevice& device, size_t capacity_lines)
    : device_(device),
      capacity_(capacity_lines),
      lines_(std::make_unique<uintptr_t[]>(capacity_lines + 1)) {}

CheckAction EadrModel::check_action(PmCheckClass cls) const {
  switch (cls) {
    case PmCheckClass::kRedundantFlush:
    case PmCheckClass::kUselessFence:
      // Free on eADR, yet worth counting: every hit is an instruction an
      // eADR-tuned build of the same workload could shed.
      return CheckAction::kInfo;
    case PmCheckClass::kDirtyAtFence:
    case PmCheckClass::kReadBeforeDurable:
      // There is no flush→fence pending window for these to fire in.
      return CheckAction::kOff;
    default:
      // unflushed_at_close stays a real violation: in the model a store only
      // becomes durable at its (free) FlushLine, so a line never flushed is
      // data the program never asked to persist.
      return CheckAction::kReport;
  }
}

void EadrModel::AbsorbFlushFree(ThreadContext& ctx, uintptr_t line_offset) {
  sync::LockGuard<XpBufferLock> guard(mu_);
  lines_[size_++] = line_offset;
  while (size_ > capacity_) {
    // Implicit eviction picks an arbitrary dirty line: locality a program had
    // when writing is gone by eviction time (paper §5.5).
    size_t victim = rng_.NextBounded(size_);
    uintptr_t line = lines_[victim];
    lines_[victim] = lines_[--size_];
    // Attribution imprecision by design: the implicit eviction is charged to
    // whatever scope happens to be active on the evicting thread, mirroring
    // how eADR divorces media traffic from the code that wrote it (§5.5).
    PushLine(device_, ctx, line, trace::CurrentComponent());
  }
}

void EadrModel::DrainResidual() {
  sync::LockGuard<XpBufferLock> guard(mu_);
  ThreadContext* ctx = ThreadContext::Current();
  for (size_t i = 0; i < size_; i++) {
    if (ctx != nullptr) {
      PushLine(device_, *ctx, lines_[i], trace::CurrentComponent());
    } else {
      // No calling context (e.g. all workers already torn down): the dirty
      // lines still reach media — account for them cost-free rather than
      // silently dropping their media writes.
      PushAccountingOnly(device_, lines_[i]);
    }
  }
  size_ = 0;
}

uint64_t EadrModel::DropVolatileOnCrash() {
  // The modeled cache sits inside the persistence domain: its content is
  // already in the shadow image, so nothing is lost — the reboot just starts
  // with a cold cache (and, like the XPBuffer drain at crash, generates no
  // media accounting).
  sync::LockGuard<XpBufferLock> guard(mu_);
  size_ = 0;
  return 0;
}

uint64_t EadrModel::ResidentLines() const {
  sync::LockGuard<XpBufferLock> guard(mu_);
  return size_;
}

// --- CxlMemModel ------------------------------------------------------------

CxlMemModel::CxlMemModel(PmDevice& device, size_t unit_bytes, bool volatile_buffer)
    : device_(device), unit_bytes_(unit_bytes), volatile_buffer_(volatile_buffer) {}

void CxlMemModel::CommitLineToShadowLocked(uintptr_t line_offset, const LineImage& image) {
  WriteShadowLine(device_, line_offset, image.bytes);
}

void CxlMemModel::StageCommittedLine(uintptr_t line_offset) {
  // Capture the content the fence committed — by eviction time the working
  // image may hold newer, not-yet-committed bytes.
  LineImage image;
  std::memcpy(image.bytes, Pool(device_) + line_offset, kCachelineBytes);
  sync::LockGuard<XpBufferLock> guard(mu_);
  staged_[line_offset] = image;
}

void CxlMemModel::CommitStagedUnit(uint64_t unit) {
  sync::LockGuard<XpBufferLock> guard(mu_);
  if (staged_.empty()) {
    return;
  }
  const uintptr_t first = static_cast<uintptr_t>(unit) * unit_bytes_;
  for (uintptr_t line = first; line < first + unit_bytes_; line += kCachelineBytes) {
    auto it = staged_.find(line);
    if (it != staged_.end()) {
      CommitLineToShadowLocked(line, it->second);
      staged_.erase(it);
    }
  }
}

void CxlMemModel::CommitAllStaged() {
  sync::LockGuard<XpBufferLock> guard(mu_);
  for (const auto& [line, image] : staged_) {
    CommitLineToShadowLocked(line, image);
  }
  staged_.clear();
}

uint64_t CxlMemModel::DropVolatileOnCrash() {
  sync::LockGuard<XpBufferLock> guard(mu_);
  uint64_t lost = staged_.size();
  staged_.clear();
  return lost;
}

uint64_t CxlMemModel::ResidentLines() const {
  sync::LockGuard<XpBufferLock> guard(mu_);
  return staged_.size();
}

// --- factory ----------------------------------------------------------------

std::unique_ptr<MediaModel> MakeMediaModel(PmDevice& device, const DeviceConfig& config) {
  switch (config.backend) {
    case MediaBackend::kEadr:
      return std::make_unique<EadrModel>(device, config.eadr_cache_lines);
    case MediaBackend::kCxlMem:
      return std::make_unique<CxlMemModel>(device, config.xpline_bytes,
                                           config.cxl_volatile_buffer);
    default:
      return std::make_unique<AdrOptaneModel>();
  }
}

}  // namespace cclbt::pmsim
