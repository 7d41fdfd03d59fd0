#include "src/pmem/log_arena.h"

#include <algorithm>
#include <cassert>

#include "src/pmsim/lockcheck.h"
#include "src/pmsim/pmcheck.h"
#include "src/trace/trace.h"

namespace cclbt::pmem {

LogArena::LogArena(PmPool& pool, size_t max_chunks)
    : pool_(&pool),
      max_chunks_(max_chunks),
      free_lists_(static_cast<size_t>(pool.device().config().num_sockets)) {}

std::unique_ptr<LogArena> LogArena::Create(PmPool& pool, size_t max_chunks) {
  auto arena = std::unique_ptr<LogArena>(new LogArena(pool, max_chunks));
  size_t registry_bytes = sizeof(Registry) + max_chunks * sizeof(uint64_t);
  void* mem = pool.AllocateRaw(registry_bytes, 0);
  assert(mem != nullptr);
  arena->registry_ = reinterpret_cast<Registry*>(mem);
  arena->registry_->chunk_count = 0;
  {
    // Formatting persist of the zero count (clean-line on a fresh pool).
    pmsim::PmCheckExpect format_expect(pmsim::PmCheckClass::kRedundantFlush);
    pmsim::Persist(&arena->registry_->chunk_count, sizeof(uint64_t));
  }
  return arena;
}

std::unique_ptr<LogArena> LogArena::Open(PmPool& pool, uint64_t registry_offset,
                                         size_t max_chunks) {
  if (!pool.HoldsRegistry(registry_offset, max_chunks, kLogChunkBytes)) {
    return nullptr;
  }
  auto arena = std::unique_ptr<LogArena>(new LogArena(pool, max_chunks));
  arena->registry_ = reinterpret_cast<Registry*>(pool.ToAddr(registry_offset));
  return arena;
}

void* LogArena::AllocChunk(int socket) {
  trace::TraceScope scope(trace::Component::kAllocMeta);
  sync::LockGuard<sync::Mutex> guard(mu_);
  std::vector<void*>* list = &free_lists_[static_cast<size_t>(socket)];
  if (list->empty()) {
    void* chunk = registry_->chunk_count < max_chunks_
                      ? pool_->AllocateRaw(kLogChunkBytes, socket)
                      : nullptr;
    if (chunk != nullptr) {
      uint64_t index = registry_->chunk_count;
      registry_->chunk_offsets[index] = pool_->ToOffset(chunk);
      pmsim::Persist(&registry_->chunk_offsets[index], sizeof(uint64_t));
      registry_->chunk_count = index + 1;
      pmsim::Persist(&registry_->chunk_count, sizeof(uint64_t));
      return chunk;
    }
    // Last resort: a free chunk of another socket.
    auto remote = std::find_if(free_lists_.begin(), free_lists_.end(),
                               [](const std::vector<void*>& l) { return !l.empty(); });
    if (remote == free_lists_.end()) {
      return nullptr;
    }
    list = &*remote;
  }
  void* chunk = list->back();
  list->pop_back();
  // Ownership transfer: the recycled chunk's lines may still carry the
  // previous owner's lockset; the new WAL protects them with its own lock.
  pmsim::LockCheckResetRange(chunk, kLogChunkBytes);
  return chunk;
}

void LogArena::FreeChunk(void* chunk) {
  const auto socket = static_cast<size_t>(pool_->device().SocketOf(pool_->ToOffset(chunk)));
  sync::LockGuard<sync::Mutex> guard(mu_);
  free_lists_[socket].push_back(chunk);
}

void LogArena::ForEachChunk(const std::function<void(void*)>& fn) const {
  for (uint64_t c = 0; c < registry_->chunk_count; c++) {
    fn(pool_->ToAddr(registry_->chunk_offsets[c]));
  }
}

void LogArena::ResetVolatile() {
  sync::LockGuard<sync::Mutex> guard(mu_);
  for (std::vector<void*>& list : free_lists_) {
    list.clear();
  }
}

uint64_t LogArena::free_chunks() const {
  sync::LockGuard<sync::Mutex> guard(mu_);
  uint64_t free = 0;
  for (const std::vector<void*>& list : free_lists_) {
    free += list.size();
  }
  return free;
}

}  // namespace cclbt::pmem
