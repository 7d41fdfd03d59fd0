// Unit tests for the PM allocation layer (pool, slab allocator, value
// store), including recovery of allocator state.
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/pmem/pool.h"
#include "src/pmem/slab_allocator.h"
#include "src/pmem/value_store.h"

namespace cclbt::pmem {
namespace {

pmsim::DeviceConfig TestConfig(size_t pool = 64 << 20) {
  pmsim::DeviceConfig config;
  config.pool_bytes = pool;
  config.num_sockets = 2;
  config.dimms_per_socket = 2;
  return config;
}

TEST(PmPool, CreateFormatsSuperblock) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  auto pool = PmPool::Create(device);
  EXPECT_EQ(pool->AllocatedBytes(), 0u);
  void* a = pool->AllocateRaw(1000, 0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(pool->AllocatedBytes(), 1024u);  // 256 B aligned
}

TEST(PmPool, AllocationsAreXplineAligned) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  auto pool = PmPool::Create(device);
  for (int i = 0; i < 10; i++) {
    void* p = pool->AllocateRaw(100, 0);
    EXPECT_EQ(pool->ToOffset(p) % 256, 0u);
  }
}

TEST(PmPool, SocketRegionsAreDisjoint) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  auto pool = PmPool::Create(device);
  void* s0 = pool->AllocateRaw(256, 0);
  void* s1 = pool->AllocateRaw(256, 1);
  EXPECT_EQ(device.SocketOf(pool->ToOffset(s0)), 0);
  EXPECT_EQ(device.SocketOf(pool->ToOffset(s1)), 1);
}

TEST(PmPool, ExhaustionReturnsNull) {
  pmsim::PmDevice device(TestConfig(8 << 20));
  pmsim::ThreadContext ctx(device, 0);
  auto pool = PmPool::Create(device);
  // Socket 0 region is 4 MB; a 8 MB request cannot fit.
  EXPECT_EQ(pool->AllocateRaw(8 << 20, 0), nullptr);
}

TEST(PmPool, AppRootsPersistAcrossReopen) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  uint64_t offset;
  {
    auto pool = PmPool::Create(device);
    void* p = pool->AllocateRaw(256, 0);
    offset = pool->ToOffset(p);
    pool->SetAppRoot(3, offset);
  }
  auto reopened = PmPool::Open(device);
  EXPECT_EQ(reopened->GetAppRoot(3), offset);
  EXPECT_EQ(reopened->GetAppRoot(0), 0u);
}

TEST(PmPool, BumpPointerSurvivesCrash) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  auto pool = PmPool::Create(device);
  void* a = pool->AllocateRaw(256, 0);
  device.Crash();
  auto reopened = PmPool::Open(device);
  void* b = reopened->AllocateRaw(256, 0);
  EXPECT_NE(a, b);  // never hand out the same region twice
}

// --- superblock validation (structured PoolOpenError diagnostics) -----------

// Mirrors pool.cc's HeaderChecksum so tests can re-seal a header after
// deliberately corrupting a checksummed field.
uint64_t SealHeader(const PoolRoot& root) {
  uint64_t h = Mix64(root.magic);
  h = Mix64(h ^ root.format_version);
  h = Mix64(h ^ root.pool_bytes);
  h = Mix64(h ^ root.num_sockets);
  return h;
}

TEST(PmPool, OpenRejectsUnformattedDevice) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  PoolOpenError error;
  EXPECT_EQ(PmPool::Open(device, &error), nullptr);
  EXPECT_EQ(error.code, PoolOpenError::Code::kBadMagic);
  EXPECT_FALSE(error.message.empty());
}

TEST(PmPool, OpenRejectsCorruptMagic) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  PmPool::Create(device);
  reinterpret_cast<PoolRoot*>(device.base())->magic ^= 0x1;
  PoolOpenError error;
  EXPECT_EQ(PmPool::Open(device, &error), nullptr);
  EXPECT_EQ(error.code, PoolOpenError::Code::kBadMagic);
}

TEST(PmPool, OpenRejectsUnsupportedVersion) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  PmPool::Create(device);
  reinterpret_cast<PoolRoot*>(device.base())->format_version = kPoolFormatVersion + 1;
  PoolOpenError error;
  EXPECT_EQ(PmPool::Open(device, &error), nullptr);
  EXPECT_EQ(error.code, PoolOpenError::Code::kBadVersion);
}

TEST(PmPool, OpenRejectsCorruptChecksum) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  PmPool::Create(device);
  reinterpret_cast<PoolRoot*>(device.base())->header_checksum ^= 0xff;
  PoolOpenError error;
  EXPECT_EQ(PmPool::Open(device, &error), nullptr);
  EXPECT_EQ(error.code, PoolOpenError::Code::kBadChecksum);
}

TEST(PmPool, OpenRejectsGeometryMismatch) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  PmPool::Create(device);
  // A validly-sealed header from a differently-sized pool: the checksum
  // passes but the geometry no longer matches this device.
  auto* root = reinterpret_cast<PoolRoot*>(device.base());
  root->pool_bytes = 128 << 20;
  root->header_checksum = SealHeader(*root);
  PoolOpenError error;
  EXPECT_EQ(PmPool::Open(device, &error), nullptr);
  EXPECT_EQ(error.code, PoolOpenError::Code::kGeometryMismatch);
}

TEST(PmPool, OpenRejectsCorruptBumpPointer) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  PmPool::Create(device);
  auto* root = reinterpret_cast<PoolRoot*>(device.base());
  root->bump_offset[0] = TestConfig().pool_bytes * 2;  // beyond its region
  PoolOpenError error;
  EXPECT_EQ(PmPool::Open(device, &error), nullptr);
  EXPECT_EQ(error.code, PoolOpenError::Code::kCorruptBump);
  EXPECT_FALSE(error.message.empty());
}

TEST(PmPool, OpenSucceedsAfterCleanShutdownAndAfterCrash) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  PmPool::Create(device);
  PoolOpenError error;
  EXPECT_NE(PmPool::Open(device, &error), nullptr);
  EXPECT_EQ(error.code, PoolOpenError::Code::kNone);
  device.Crash();
  EXPECT_NE(PmPool::Open(device, &error), nullptr);
}

TEST(SlabAllocator, AllocateFreeReuse) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  auto pool = PmPool::Create(device);
  SlabAllocator::Options options;
  options.slot_bytes = 256;
  options.slots_per_chunk = 16;
  auto slab = SlabAllocator::Create(*pool, options);
  void* a = slab->Allocate(0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(slab->allocated_slots(), 1u);
  slab->Free(a);
  EXPECT_EQ(slab->allocated_slots(), 0u);
  void* b = slab->Allocate(0);
  EXPECT_EQ(a, b);  // LIFO reuse
}

TEST(SlabAllocator, GrowsByChunks) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  auto pool = PmPool::Create(device);
  SlabAllocator::Options options;
  options.slot_bytes = 256;
  options.slots_per_chunk = 4;
  auto slab = SlabAllocator::Create(*pool, options);
  std::set<void*> slots;
  for (int i = 0; i < 10; i++) {
    slots.insert(slab->Allocate(0));
  }
  EXPECT_EQ(slots.size(), 10u);
  EXPECT_EQ(slab->total_chunk_bytes(), 3u * 4 * 256);
}

TEST(SlabAllocator, SocketLocalAllocation) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  auto pool = PmPool::Create(device);
  SlabAllocator::Options options;
  auto slab = SlabAllocator::Create(*pool, options);
  void* s0 = slab->Allocate(0);
  void* s1 = slab->Allocate(1);
  EXPECT_EQ(device.SocketOf(pool->ToOffset(s0)), 0);
  EXPECT_EQ(device.SocketOf(pool->ToOffset(s1)), 1);
}

TEST(SlabAllocator, RecoverRebuildsFreeLists) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  auto pool = PmPool::Create(device);
  SlabAllocator::Options options;
  options.slots_per_chunk = 8;
  uint64_t registry;
  void* live_slot = nullptr;
  {
    auto slab = SlabAllocator::Create(*pool, options);
    registry = slab->registry_offset();
    live_slot = slab->Allocate(0);
    // Mark liveness in the slot itself, persist so it survives the crash.
    *static_cast<uint64_t*>(live_slot) = 0xDEADBEEF;
    pmsim::Persist(live_slot, 8);
    slab->Allocate(0);  // allocated but never marked live -> leaked until recovery
  }
  device.Crash();
  auto slab = SlabAllocator::Open(*pool, registry, options);
  slab->Recover([](const void* slot) {
    return *static_cast<const uint64_t*>(slot) == 0xDEADBEEF;
  });
  EXPECT_EQ(slab->allocated_slots(), 1u);
  // 7 slots are free again; allocating all of them never returns live_slot.
  for (int i = 0; i < 7; i++) {
    void* p = slab->Allocate(0);
    ASSERT_NE(p, nullptr);
    EXPECT_NE(p, live_slot);
  }
}

// A log: one 4 MB slot per chunk.
constexpr SlabAllocator::Options kLogChunks{
    .slot_bytes = 4 << 20, .slots_per_chunk = 1, .max_chunks = 4096};

// A freed slot is recycled on its own socket: another socket carves its own
// chunk while its region has room, and takes the free slot only when not.
// One policy for log chunks and for 256 B slots.
TEST(SlabAllocator, FreeSlotsRecycleOnTheirOwnSocketFirst) {
  const SlabAllocator::Options small_slots{
      .slot_bytes = 256, .slots_per_chunk = 4, .max_chunks = 64};
  for (const SlabAllocator::Options& options : {kLogChunks, small_slots}) {
    SCOPED_TRACE(options.slot_bytes);
    pmsim::PmDevice device(TestConfig(128 << 20));
    pmsim::ThreadContext ctx(device, 0);
    auto pool = PmPool::Create(device);
    auto slab = SlabAllocator::Create(*pool, options);
    const uint64_t chunk_bytes = options.slot_bytes * options.slots_per_chunk;
    void* a = slab->Allocate(0);
    ASSERT_NE(a, nullptr);
    slab->Free(a);
    EXPECT_EQ(slab->allocated_slots(), 0u);
    // Carving on socket 1 wins over socket 0's free slots.
    for (size_t i = 0; i < options.slots_per_chunk; i++) {
      void* b = slab->Allocate(1);
      ASSERT_NE(b, nullptr);
      EXPECT_EQ(device.SocketOf(pool->ToOffset(b)), 1);
    }
    EXPECT_EQ(slab->total_chunk_bytes(), 2 * chunk_bytes);
    EXPECT_EQ(slab->Allocate(0), a);  // socket 0's free list wins over carving
    EXPECT_EQ(slab->total_chunk_bytes(), 2 * chunk_bytes);

    // Socket 1's region full: its last resort is socket 0's free slots.
    slab->Free(a);
    while (pool->AllocateRaw(chunk_bytes, 1) != nullptr) {
    }
    EXPECT_EQ(slab->Allocate(1), a);
    for (size_t i = 1; i < options.slots_per_chunk; i++) {
      void* c = slab->Allocate(1);
      ASSERT_NE(c, nullptr);
      EXPECT_EQ(device.SocketOf(pool->ToOffset(c)), 0);
    }
    EXPECT_EQ(slab->Allocate(1), nullptr);
    EXPECT_EQ(slab->total_chunk_bytes(), 2 * chunk_bytes);
    EXPECT_EQ(slab->allocated_slots(), 2 * options.slots_per_chunk);
  }
}

TEST(SlabAllocator, LogChunkRegistrySurvivesCrash) {
  pmsim::PmDevice device(TestConfig(128 << 20));
  pmsim::ThreadContext ctx(device, 0);
  auto pool = PmPool::Create(device);
  uint64_t registry;
  {
    auto log = SlabAllocator::Create(*pool, kLogChunks);
    registry = log->registry_offset();
    log->Allocate(0);
    log->Allocate(0);
  }
  device.Crash();
  auto log = SlabAllocator::Open(*pool, registry, kLogChunks);
  ASSERT_NE(log, nullptr);
  int chunks = 0;
  log->ForEachSlot([&chunks](void*) { chunks++; });
  EXPECT_EQ(chunks, 2);
}

TEST(ValueStore, RoundTrip) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  auto pool = PmPool::Create(device);
  ValueStore store(*pool);
  std::string payload = "variable size value payload";
  auto handle = store.Append(std::as_bytes(std::span(payload.data(), payload.size())), 0);
  EXPECT_TRUE(IsIndirect(handle));
  auto read = store.Read(handle);
  ASSERT_EQ(read.size(), payload.size());
  EXPECT_EQ(std::memcmp(read.data(), payload.data(), payload.size()), 0);
}

TEST(ValueStore, HandlesSurviveCrash) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  auto pool = PmPool::Create(device);
  ValueStore store(*pool);
  std::string payload(300, 'x');
  auto handle = store.Append(std::as_bytes(std::span(payload.data(), payload.size())), 0);
  device.Crash();
  auto read = store.Read(handle);
  ASSERT_EQ(read.size(), payload.size());
  EXPECT_EQ(std::memcmp(read.data(), payload.data(), payload.size()), 0);
}

TEST(ValueStore, DistinctHandles) {
  pmsim::PmDevice device(TestConfig());
  pmsim::ThreadContext ctx(device, 0);
  auto pool = PmPool::Create(device);
  ValueStore store(*pool);
  std::set<uint64_t> handles;
  std::string payload(64, 'y');
  for (int i = 0; i < 100; i++) {
    handles.insert(store.Append(std::as_bytes(std::span(payload.data(), payload.size())), i % 2));
  }
  EXPECT_EQ(handles.size(), 100u);
}

}  // namespace
}  // namespace cclbt::pmem
