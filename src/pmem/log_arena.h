// 4 MB log-chunk arena with a free list per socket (paper §3.3: "Each WAL
// consists of multiple 4 MB log chunks. CCL-BTree maintains a free log list
// to manage the recycled log chunks. When a new log chunk is needed, it is
// first retrieved from the free list. If the free list is empty, a new log
// chunk is allocated."). A freed chunk goes back to the list of the socket
// whose region holds it, as the slab allocator's slots do, so a recycled
// chunk stays local to the WAL that draws it (§4.4 Opt. 1).
//
// The arena persists only the registry of chunks it ever carved from the
// pool; whether a chunk currently holds live log data is recorded in the
// chunk's own persistent header, which the WAL layer owns (see
// src/core/wal.h). After a crash the WAL re-scans all registered chunks.
#ifndef SRC_PMEM_LOG_ARENA_H_
#define SRC_PMEM_LOG_ARENA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/lock.h"
#include "src/pmem/pool.h"

namespace cclbt::pmem {

inline constexpr size_t kLogChunkBytes = 4 * 1024 * 1024;

class LogArena {
 public:
  static std::unique_ptr<LogArena> Create(PmPool& pool, size_t max_chunks = 4096);
  // Re-attaches to the registry at `registry_offset` after a restart.
  // nullptr when the registry lists more than max_chunks chunks, or when it
  // or a chunk it lists is not wholly inside the pool.
  static std::unique_ptr<LogArena> Open(PmPool& pool, uint64_t registry_offset,
                                        size_t max_chunks = 4096);

  LogArena(const LogArena&) = delete;
  LogArena& operator=(const LogArena&) = delete;

  // NUMA-friendly logging binds each thread's WAL to its local socket: pops
  // a recycled chunk of `socket`, else carves a new one from `socket`'s
  // region, else pops a recycled chunk of another socket, so the arena never
  // fails while a chunk is free. nullptr when none is free and neither the
  // registry nor the region has room.
  void* AllocChunk(int socket);
  // Returns a chunk to the free list of the socket whose region holds it.
  void FreeChunk(void* chunk);

  // Recovery: visit every chunk ever carved; the WAL decides liveness from
  // the chunk header and returns the dead ones through FreeChunk.
  void ForEachChunk(const std::function<void(void*)>& fn) const;

  // Clears the volatile free lists (after Open, before re-scan).
  void ResetVolatile();

  uint64_t registry_offset() const { return pool_->ToOffset(registry_); }
  uint64_t total_chunks() const { return registry_->chunk_count; }
  uint64_t free_chunks() const;

 private:
  struct Registry {  // persistent
    uint64_t chunk_count;
    uint64_t chunk_offsets[];
  };

  LogArena(PmPool& pool, size_t max_chunks);

  PmPool* pool_;
  size_t max_chunks_;
  Registry* registry_ = nullptr;

  mutable sync::Mutex mu_{"pmem.log_arena"};
  std::vector<std::vector<void*>> free_lists_ GUARDED_BY(mu_);  // one per socket
};

}  // namespace cclbt::pmem

#endif  // SRC_PMEM_LOG_ARENA_H_
