#include "src/pmem/pool.h"

#include <cassert>
#include <cstdio>
#include <cstring>

#include "src/common/rng.h"
#include "src/pmsim/pmcheck.h"
#include "src/trace/trace.h"

namespace cclbt::pmem {

namespace {
constexpr size_t kAllocAlign = 256;  // XPLine alignment for everything.

size_t AlignUp(size_t v, size_t align) { return (v + align - 1) & ~(align - 1); }

uint64_t HeaderChecksum(const PoolRoot& root) {
  uint64_t h = Mix64(root.magic);
  h = Mix64(h ^ root.format_version);
  h = Mix64(h ^ root.pool_bytes);
  h = Mix64(h ^ root.num_sockets);
  return h;
}

void Fail(PoolOpenError* error, PoolOpenError::Code code, const char* fmt, uint64_t got,
          uint64_t want) {
  if (error == nullptr) {
    return;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(want));
  error->code = code;
  error->message = buf;
}
}  // namespace

PmPool::PmPool(pmsim::PmDevice& device) : device_(&device) {}

std::unique_ptr<PmPool> PmPool::Create(pmsim::PmDevice& device) {
  auto pool = std::unique_ptr<PmPool>(new PmPool(device));
  PoolRoot* root = pool->root();
  std::memset(root, 0, sizeof(PoolRoot));
  root->magic = kPoolMagic;
  root->format_version = kPoolFormatVersion;
  root->pool_bytes = device.config().pool_bytes;
  root->num_sockets = static_cast<uint64_t>(device.config().num_sockets);
  root->header_checksum = HeaderChecksum(*root);
  for (int socket = 0; socket < device.config().num_sockets; socket++) {
    uint64_t region_start = static_cast<uint64_t>(socket) * device.config().socket_region_bytes();
    // Socket 0 loses the superblock page.
    root->bump_offset[socket] =
        socket == 0 ? AlignUp(kSuperblockBytes, kAllocAlign) : region_start;
  }
  {
    // Formatting persist: zero-valued superblock fields (unused app roots,
    // padding) are content-equal to a fresh device's zeroes, but formatting
    // over a previously used device needs every header line durable.
    pmsim::PmCheckExpect format_expect(pmsim::PmCheckClass::kRedundantFlush);
    pmsim::Persist(root, sizeof(PoolRoot));
  }
  return pool;
}

std::unique_ptr<PmPool> PmPool::Open(pmsim::PmDevice& device, PoolOpenError* error) {
  auto pool = std::unique_ptr<PmPool>(new PmPool(device));
  const PoolRoot* root = pool->root();
  if (pmsim::ThreadContext::Current() != nullptr) {
    pmsim::ReadPm(root, sizeof(PoolRoot));  // modeled superblock read at boot
  }
  if (root->magic != kPoolMagic) {
    Fail(error, PoolOpenError::Code::kBadMagic,
         "pool superblock: bad magic 0x%llx (expected 0x%llx) — device not formatted or "
         "header corrupted",
         root->magic, kPoolMagic);
    return nullptr;
  }
  if (root->format_version != kPoolFormatVersion) {
    Fail(error, PoolOpenError::Code::kBadVersion,
         "pool superblock: format version %llu not supported (expected %llu)",
         root->format_version, kPoolFormatVersion);
    return nullptr;
  }
  if (root->header_checksum != HeaderChecksum(*root)) {
    Fail(error, PoolOpenError::Code::kBadChecksum,
         "pool superblock: header checksum 0x%llx does not match computed 0x%llx — "
         "immutable header fields corrupted",
         root->header_checksum, HeaderChecksum(*root));
    return nullptr;
  }
  if (root->pool_bytes != device.config().pool_bytes ||
      root->num_sockets != static_cast<uint64_t>(device.config().num_sockets)) {
    Fail(error, PoolOpenError::Code::kGeometryMismatch,
         "pool superblock: formatted geometry (pool_bytes=%llu, num_sockets=%llu) does not "
         "match the device",
         root->pool_bytes, root->num_sockets);
    return nullptr;
  }
  for (int socket = 0; socket < device.config().num_sockets; socket++) {
    uint64_t region_start = static_cast<uint64_t>(socket) * device.config().socket_region_bytes();
    uint64_t region_end = region_start + device.config().socket_region_bytes();
    uint64_t base = socket == 0 ? AlignUp(kSuperblockBytes, kAllocAlign) : region_start;
    uint64_t bump = root->bump_offset[socket];
    if (bump < base || bump > region_end) {
      Fail(error, PoolOpenError::Code::kCorruptBump,
           "pool superblock: bump pointer %llu outside socket region (socket %llu)", bump,
           static_cast<uint64_t>(socket));
      return nullptr;
    }
  }
  return pool;
}

void* PmPool::AllocateRaw(size_t bytes, int socket) {
  trace::TraceScope scope(trace::Component::kAllocMeta);
  assert(socket >= 0 && socket < device_->config().num_sockets);
  bytes = AlignUp(bytes, kAllocAlign);
  sync::LockGuard<sync::Mutex> guard(mu_);
  PoolRoot* header = root();
  uint64_t offset = header->bump_offset[socket];
  uint64_t region_end =
      (static_cast<uint64_t>(socket) + 1) * device_->config().socket_region_bytes();
  if (offset + bytes > region_end) {
    return nullptr;  // Socket region exhausted.
  }
  header->bump_offset[socket] = offset + bytes;
  pmsim::Persist(&header->bump_offset[socket], sizeof(uint64_t));
  return device_->AddrOf(offset);
}

uint64_t PmPool::GetAppRoot(int slot) const {
  assert(slot >= 0 && slot < kNumAppRoots);
  return root()->app_root[slot];
}

void PmPool::SetAppRoot(int slot, uint64_t offset) {
  trace::TraceScope scope(trace::Component::kAllocMeta);
  assert(slot >= 0 && slot < kNumAppRoots);
  root()->app_root[slot] = offset;
  pmsim::Persist(&root()->app_root[slot], sizeof(uint64_t));
}

uint64_t PmPool::AllocatedBytes() const {
  const PoolRoot* header = root();
  uint64_t total = 0;
  for (int socket = 0; socket < device_->config().num_sockets; socket++) {
    uint64_t region_start = static_cast<uint64_t>(socket) * device_->config().socket_region_bytes();
    uint64_t base = socket == 0 ? AlignUp(kSuperblockBytes, kAllocAlign) : region_start;
    total += header->bump_offset[socket] - base;
  }
  return total;
}

}  // namespace cclbt::pmem
