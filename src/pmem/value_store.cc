#include "src/pmem/value_store.h"

#include <cassert>
#include <cstring>

#include "src/trace/trace.h"

namespace cclbt::pmem {

ValueStore::ValueStore(PmPool& pool, uint64_t carried_leaked_bytes)
    : pool_(&pool), leaked_bytes_(carried_leaked_bytes) {
  int sockets = pool.device().config().num_sockets;
  region_cursor_.assign(static_cast<size_t>(sockets), nullptr);
  region_end_.assign(static_cast<size_t>(sockets), nullptr);
}

uint64_t ValueStore::unused_reserved_bytes() const {
  sync::LockGuard<sync::Mutex> guard(mu_);
  uint64_t unused = 0;
  for (size_t s = 0; s < region_cursor_.size(); s++) {
    if (region_cursor_[s] != nullptr) {
      unused += static_cast<uint64_t>(region_end_[s] - region_cursor_[s]);
    }
  }
  return unused;
}

uint64_t ValueStore::Append(std::span<const std::byte> data, int socket) {
  trace::TraceScope scope(trace::Component::kValueStore);
  size_t need = sizeof(Blob) + data.size();
  // Round to 8 B so headers stay aligned.
  need = (need + 7) & ~size_t{7};
  sync::LockGuard<sync::Mutex> guard(mu_);
  auto idx = static_cast<size_t>(socket);
  if (region_cursor_[idx] == nullptr ||
      region_cursor_[idx] + need > region_end_[idx]) {
    size_t region_bytes = need > kRegionBytes ? need : kRegionBytes;
    auto* region = reinterpret_cast<std::byte*>(pool_->AllocateRaw(region_bytes, socket));
    assert(region != nullptr && "PM exhausted in ValueStore");
    region_cursor_[idx] = region;
    region_end_[idx] = region + region_bytes;
  }
  auto* blob = reinterpret_cast<Blob*>(region_cursor_[idx]);
  region_cursor_[idx] += need;
  allocated_bytes_ += need;
  blob->size = data.size();
  std::memcpy(blob->data, data.data(), data.size());
  pmsim::Persist(blob, sizeof(Blob) + data.size());
  uint64_t offset = pool_->ToOffset(blob);
  assert((offset & kIndirectBit) == 0);
  return offset | kIndirectBit;
}

std::span<const std::byte> ValueStore::Read(uint64_t handle) const {
  assert(IsIndirect(handle));
  const auto* blob =
      reinterpret_cast<const Blob*>(pool_->ToAddr(handle & ~kIndirectBit));
  pmsim::ReadPm(blob, sizeof(Blob) + blob->size);
  return {blob->data, blob->size};
}

}  // namespace cclbt::pmem
