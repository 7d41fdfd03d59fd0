#include "src/trace/trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace cclbt::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_scope_timing{false};
constinit thread_local ThreadBinding tl_binding;
std::atomic<RingFactory> g_ring_factory{nullptr};

void EmitSlow(EventType type, uint64_t arg, uint32_t aux, uint16_t dimm) {
  ThreadBinding& b = tl_binding;
  TraceRing* ring = b.ring;
  if (ring == nullptr) {
    // A worker that existed before tracing was enabled (e.g. a background GC
    // thread) gets its ring on first emit, via the factory pmsim installs.
    RingFactory factory = g_ring_factory.load(std::memory_order_acquire);
    if (factory == nullptr || (ring = factory()) == nullptr) {
      return;
    }
    b.ring = ring;
  }
  TraceEvent ev;
  ev.t_ns = ThreadVirtualNow();
  ev.arg = arg;
  ev.aux = aux;
  ev.type = static_cast<uint8_t>(type);
  ev.comp = b.component;
  ev.dimm = dimm;
  ring->Emit(ev);
}
}  // namespace detail

void SetEnabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

bool TracingRequested() {
  const char* value = std::getenv("CCL_TRACE");
  if (value == nullptr || value[0] == '\0' || std::strcmp(value, "0") == 0) {
    return false;
  }
  const char* dump = std::getenv("CCL_METRICS");
  const bool switch_on = std::strcmp(value, "1") == 0;
  if (switch_on && dump != nullptr && dump[0] != '\0') {
    return true;
  }
  static std::atomic<bool> named_value{false};
  static std::atomic<bool> named_missing_dump{false};
  if (!switch_on && !named_value.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "trace: CCL_TRACE=%s is not 0 or 1 (the dump prefix is CCL_METRICS=<prefix>); "
                 "tracing off\n",
                 value);
  } else if (switch_on && !named_missing_dump.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "trace: CCL_TRACE=1 needs CCL_METRICS=<prefix> to name the dump; tracing off\n");
  }
  return false;
}

void SetScopeTiming(bool on) {
  detail::g_scope_timing.store(on, std::memory_order_relaxed);
}

void SetRingFactory(detail::RingFactory factory) {
  detail::g_ring_factory.store(factory, std::memory_order_release);
}

TraceRing::TraceRing(size_t capacity) {
  size_t cap = 1;
  while (cap < capacity) {
    cap <<= 1;
  }
  buf_.resize(cap);
  mask_ = cap - 1;
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  std::vector<TraceEvent> out;
  lock_.lock();
  uint64_t end = seq_;
  uint64_t begin = end > buf_.size() ? end - buf_.size() : 0;
  out.reserve(static_cast<size_t>(end - begin));
  for (uint64_t i = begin; i < end; i++) {
    out.push_back(buf_[static_cast<size_t>(i) & mask_]);
  }
  lock_.unlock();
  return out;
}

namespace {

struct RingEntry {
  int worker_id;
  int socket;
  bool live;
  std::unique_ptr<TraceRing> ring;
};

struct Registry {
  sync::Mutex mu{"trace.registry"};
  std::vector<RingEntry> entries GUARDED_BY(mu);
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // leaked: outlives all threads
  return *registry;
}

// Capacity (events) of every worker's ring: 8192 events, 192 KB.
constexpr size_t kRingCapacity = 1 << 13;

}  // namespace

TraceRing* AcquireRing(int worker_id, int socket) {
  auto ring = std::make_unique<TraceRing>(kRingCapacity);
  TraceRing* raw = ring.get();
  Registry& reg = GetRegistry();
  sync::LockGuard<sync::Mutex> guard(reg.mu);
  reg.entries.push_back(RingEntry{worker_id, socket, true, std::move(ring)});
  return raw;
}

void ReleaseRing(TraceRing* ring) {
  if (ring == nullptr) {
    return;
  }
  Registry& reg = GetRegistry();
  sync::LockGuard<sync::Mutex> guard(reg.mu);
  for (RingEntry& entry : reg.entries) {
    if (entry.ring.get() == ring) {
      entry.live = false;
      return;
    }
  }
}

std::vector<NamedRing> CollectRings() {
  Registry& reg = GetRegistry();
  sync::LockGuard<sync::Mutex> guard(reg.mu);
  std::vector<NamedRing> out;
  out.reserve(reg.entries.size());
  for (const RingEntry& entry : reg.entries) {
    NamedRing named;
    named.worker_id = entry.worker_id;
    named.socket = entry.socket;
    named.emitted = entry.ring->emitted();
    named.events = entry.ring->Snapshot();
    out.push_back(std::move(named));
  }
  return out;
}

void ClearRings() {
  Registry& reg = GetRegistry();
  sync::LockGuard<sync::Mutex> guard(reg.mu);
  std::vector<RingEntry> kept;
  for (RingEntry& entry : reg.entries) {
    if (entry.live) {
      entry.ring->Clear();
      kept.push_back(std::move(entry));
    }
  }
  reg.entries.swap(kept);
}

}  // namespace cclbt::trace