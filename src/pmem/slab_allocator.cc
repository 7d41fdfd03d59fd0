#include "src/pmem/slab_allocator.h"

#include <algorithm>
#include <cassert>

#include "src/pmsim/lockcheck.h"
#include "src/pmsim/pmcheck.h"
#include "src/trace/trace.h"

namespace cclbt::pmem {

SlabAllocator::SlabAllocator(PmPool& pool, const Options& options)
    : pool_(&pool), options_(options) {
  for (int i = 0; i < pool.device().config().num_sockets; i++) {
    sockets_.push_back(std::make_unique<SocketState>());
  }
}

std::unique_ptr<SlabAllocator> SlabAllocator::Create(PmPool& pool, const Options& options) {
  auto slab = std::unique_ptr<SlabAllocator>(new SlabAllocator(pool, options));
  size_t registry_bytes = sizeof(Registry) + options.max_chunks * sizeof(uint64_t);
  void* mem = pool.AllocateRaw(registry_bytes, 0);
  assert(mem != nullptr);
  slab->registry_ = reinterpret_cast<Registry*>(mem);
  slab->registry_->chunk_count = 0;
  {
    // Formatting persist of the zero count (clean-line on a fresh pool).
    pmsim::PmCheckExpect format_expect(pmsim::PmCheckClass::kRedundantFlush);
    pmsim::Persist(&slab->registry_->chunk_count, sizeof(uint64_t));
  }
  return slab;
}

std::unique_ptr<SlabAllocator> SlabAllocator::Open(PmPool& pool, uint64_t registry_offset,
                                                   const Options& options) {
  if (!pool.Holds(registry_offset, sizeof(Registry))) {
    return nullptr;
  }
  const auto* registry = static_cast<const Registry*>(pool.ToAddr(registry_offset));
  const uint64_t count = registry->chunk_count;
  if (count > options.max_chunks ||
      !pool.Holds(registry_offset, sizeof(Registry) + count * sizeof(uint64_t))) {
    return nullptr;
  }
  std::vector<uint64_t> chunks(registry->chunk_offsets, registry->chunk_offsets + count);
  std::sort(chunks.begin(), chunks.end());
  const uint64_t chunk_bytes = options.slot_bytes * options.slots_per_chunk;
  const auto outside = [&pool, chunk_bytes](uint64_t chunk) {
    return !pool.Holds(chunk, chunk_bytes);
  };
  // Sorted, a chunk listed twice or overlapping the next starts less than a
  // chunk before it.
  const auto shared = [chunk_bytes](uint64_t chunk, uint64_t next) {
    return next - chunk < chunk_bytes;
  };
  if (std::any_of(chunks.begin(), chunks.end(), outside) ||
      std::adjacent_find(chunks.begin(), chunks.end(), shared) != chunks.end()) {
    return nullptr;
  }
  auto slab = std::unique_ptr<SlabAllocator>(new SlabAllocator(pool, options));
  slab->registry_ = reinterpret_cast<Registry*>(pool.ToAddr(registry_offset));
  slab->opened_chunks_ = std::move(chunks);
  return slab;
}

void SlabAllocator::GrowLocked(int socket, SocketState& state) {
  trace::TraceScope scope(trace::Component::kAllocMeta);
  sync::LockGuard<sync::Mutex> registry_guard(registry_mu_);
  if (registry_->chunk_count >= options_.max_chunks) {
    return;
  }
  size_t chunk_bytes = options_.slot_bytes * options_.slots_per_chunk;
  void* chunk = pool_->AllocateRaw(chunk_bytes, socket);
  if (chunk == nullptr) {
    return;
  }
  // Persist the registry append: slot first, then the count (count is the
  // commit point — a crash between the two just forgets the chunk, and the
  // pool bump pointer is already durable so the space is never double-used;
  // it is leaked space bounded by one chunk, matching chunk-based allocators).
  uint64_t index = registry_->chunk_count;
  registry_->chunk_offsets[index] = pool_->ToOffset(chunk);
  pmsim::Persist(&registry_->chunk_offsets[index], sizeof(uint64_t));
  registry_->chunk_count = index + 1;
  pmsim::Persist(&registry_->chunk_count, sizeof(uint64_t));

  auto* base = reinterpret_cast<std::byte*>(chunk);
  for (size_t i = 0; i < options_.slots_per_chunk; i++) {
    state.free_slots.push_back(base + i * options_.slot_bytes);
  }
}

void* SlabAllocator::PopLocked(SocketState& state) {
  if (state.free_slots.empty()) {
    return nullptr;
  }
  void* slot = state.free_slots.back();
  state.free_slots.pop_back();
  return slot;
}

void* SlabAllocator::Allocate(int socket) {
  void* slot = nullptr;
  {
    auto& local = *sockets_[static_cast<size_t>(socket)];
    sync::LockGuard<sync::Mutex> guard(local.mu);
    if (local.free_slots.empty()) {
      GrowLocked(socket, local);
    }
    slot = PopLocked(local);
  }
  // Last resort: a free slot of another socket, under that socket's lock
  // alone, since sibling socket locks are never held together.
  for (size_t s = 0; slot == nullptr && s < sockets_.size(); s++) {
    auto& other = *sockets_[s];
    sync::LockGuard<sync::Mutex> guard(other.mu);
    slot = PopLocked(other);
  }
  if (slot == nullptr) {
    return nullptr;
  }
  allocated_slots_.fetch_add(1, std::memory_order_relaxed);
  // Ownership transfer: a recycled slot's lines may still carry the previous
  // owner's lockset; the new owner protects them with its own latch.
  pmsim::LockCheckResetRange(slot, options_.slot_bytes);
  return slot;
}

void SlabAllocator::Free(void* slot) {
  int socket = pool_->device().SocketOf(pool_->ToOffset(slot));
  auto& state = *sockets_[static_cast<size_t>(socket)];
  sync::LockGuard<sync::Mutex> guard(state.mu);
  state.free_slots.push_back(slot);
  allocated_slots_.fetch_sub(1, std::memory_order_relaxed);
}

void SlabAllocator::Recover(const std::function<bool(const void*)>& is_live) {
  for (auto& state : sockets_) {
    sync::LockGuard<sync::Mutex> guard(state->mu);
    state->free_slots.clear();
  }
  allocated_slots_.store(0, std::memory_order_relaxed);
  for (uint64_t c = 0; c < registry_->chunk_count; c++) {
    auto* base = reinterpret_cast<std::byte*>(pool_->ToAddr(registry_->chunk_offsets[c]));
    int socket = pool_->device().SocketOf(registry_->chunk_offsets[c]);
    auto& state = *sockets_[static_cast<size_t>(socket)];
    sync::LockGuard<sync::Mutex> guard(state.mu);
    for (size_t i = 0; i < options_.slots_per_chunk; i++) {
      void* slot = base + i * options_.slot_bytes;
      if (is_live(slot)) {
        allocated_slots_.fetch_add(1, std::memory_order_relaxed);
      } else {
        state.free_slots.push_back(slot);
      }
    }
  }
}

void SlabAllocator::ForEachSlot(const std::function<void(void*)>& fn) const {
  for (uint64_t c = 0; c < registry_->chunk_count; c++) {
    auto* base = reinterpret_cast<std::byte*>(pool_->ToAddr(registry_->chunk_offsets[c]));
    for (size_t i = 0; i < options_.slots_per_chunk; i++) {
      fn(base + i * options_.slot_bytes);
    }
  }
}

bool SlabAllocator::IsSlot(uint64_t offset) const {
  auto above = std::upper_bound(opened_chunks_.begin(), opened_chunks_.end(), offset);
  if (above == opened_chunks_.begin()) {
    return false;
  }
  const uint64_t within = offset - *std::prev(above);
  return within < options_.slot_bytes * options_.slots_per_chunk &&
         within % options_.slot_bytes == 0;
}

uint64_t SlabAllocator::total_chunk_bytes() const {
  return registry_->chunk_count * options_.slot_bytes * options_.slots_per_chunk;
}

}  // namespace cclbt::pmem
