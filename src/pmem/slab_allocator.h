// Chunk-based fixed-size PM allocator (paper §4.2: "we adopt the chunk-based
// allocation strategy [7] to avoid the potential PM leak for the newly
// created leaf node"). It is the one allocator of every persistent object
// kind, with one policy: leaves, hash overflow buckets and big leaves are
// slots of multi-slot chunks, and log chunks (§3.3: "When a new log chunk
// is needed, it is first retrieved from the free list. If the free list is
// empty, a new log chunk is allocated.") are the one slot of a one-slot
// chunk.
//
// Leak-safety argument: the only *persistent* allocator metadata is the
// registry of chunks, updated once per chunk (not per object). Object
// liveness is owned by the data structure (a leaf is live iff it is reachable
// through the persistent leaf linked list / carries a valid header), so after
// a crash Recover() rebuilds the volatile free lists by scanning chunk slots
// with a caller-provided liveness predicate — allocated-but-never-linked
// objects are reclaimed instead of leaking.
#ifndef SRC_PMEM_SLAB_ALLOCATOR_H_
#define SRC_PMEM_SLAB_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/lock.h"
#include "src/pmem/pool.h"

namespace cclbt::pmem {

class SlabAllocator {
 public:
  struct Options {
    size_t slot_bytes = 256;
    size_t slots_per_chunk = 1024;  // 256 KB chunks by default
    size_t max_chunks = 64 * 1024;
  };

  // Creates a fresh allocator; its persistent registry offset is available
  // via registry_offset() for storage in a pool app-root slot.
  static std::unique_ptr<SlabAllocator> Create(PmPool& pool, const Options& options);
  // Re-attaches to an existing registry after a (simulated) restart. Volatile
  // free lists are empty until Recover() runs. nullptr when the registry
  // lists more than max_chunks chunks, when it or a chunk it lists is not
  // wholly inside the pool, or when two chunks it lists share a byte (a
  // repeated or overlapping entry would hand out their slots twice).
  static std::unique_ptr<SlabAllocator> Open(PmPool& pool, uint64_t registry_offset,
                                             const Options& options);

  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  // Returns a raw slot, which the caller initializes and persists: a free
  // slot of `socket`, else one of a chunk newly carved from `socket`'s
  // region, else a free slot of another socket, so allocation never fails
  // while a slot is free. nullptr when none is free and neither the registry
  // nor the region has room.
  void* Allocate(int socket);
  // Returns a slot to the free list of the socket whose region holds it.
  void Free(void* slot);

  // Rebuilds free lists: a slot is free iff !is_live(slot). Called once
  // during failure recovery, before any Allocate. Visits the slots in the
  // order ForEachSlot does.
  void Recover(const std::function<bool(const void*)>& is_live);

  // Visits every slot of every chunk (live or not), chunk by chunk in
  // registry order.
  void ForEachSlot(const std::function<void(void*)>& fn) const;

  // Whether pool offset `offset` is a slot of a chunk registered when Open
  // ran: inside one and slot-aligned. Tree recovery checks each pre-crash
  // leaf pointer it follows with this. O(log chunks); false on a slab made
  // by Create.
  bool IsSlot(uint64_t offset) const;

  uint64_t registry_offset() const { return pool_->ToOffset(registry_); }
  size_t slot_bytes() const { return options_.slot_bytes; }
  uint64_t allocated_slots() const { return allocated_slots_.load(std::memory_order_relaxed); }
  uint64_t total_chunk_bytes() const;

 private:
  struct Registry {  // persistent
    uint64_t chunk_count;
    uint64_t chunk_offsets[];  // flexible array, max_chunks entries
  };

  SlabAllocator(PmPool& pool, const Options& options);

  struct SocketState {
    // All socket free lists share one lock name: they are instances of the
    // same role, and sibling sockets are never held together.
    sync::Mutex mu{"pmem.slab"};
    std::vector<void*> free_slots GUARDED_BY(mu);
  };

  // Carves a chunk from `socket`'s region onto state's free list, unless the
  // registry or the region is full.
  void GrowLocked(int socket, SocketState& state) REQUIRES(state.mu);
  // Pops the last free slot of `state`; nullptr when it has none.
  static void* PopLocked(SocketState& state) REQUIRES(state.mu);

  PmPool* pool_;
  Options options_;
  // Every socket's free list appends its chunks to this one registry, so
  // appends take registry_mu_ on top of the socket's lock.
  sync::Mutex registry_mu_{"pmem.slab_registry"};
  Registry* registry_ = nullptr;
  // The chunk offsets the registry held at Open, ascending, for IsSlot.
  std::vector<uint64_t> opened_chunks_;

  std::vector<std::unique_ptr<SocketState>> sockets_;
  std::atomic<uint64_t> allocated_slots_{0};
};

}  // namespace cclbt::pmem

#endif  // SRC_PMEM_SLAB_ALLOCATOR_H_
