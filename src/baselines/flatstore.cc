#include "src/baselines/flatstore.h"

#include <cassert>

#include "src/trace/trace.h"

namespace cclbt::baselines {

FlatStore::FlatStore(kvindex::Runtime& runtime) : rt_(runtime), logs_(130) {
  pmsim::ThreadContext boot_ctx(rt_.device(), 0, 0);
  log_slab_ = pmem::SlabAllocator::Create(
      rt_.pool(),
      {.slot_bytes = kLogChunkBytes, .slots_per_chunk = 1, .max_chunks = 1 << 16});
}

FlatStore::~FlatStore() = default;

const FlatStore::Record* FlatStore::Append(uint64_t key, uint64_t value, bool tombstone) {
  trace::TraceScope scope(trace::Component::kWal);
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  assert(ctx != nullptr);
  auto& log = logs_[static_cast<size_t>(ctx->worker_id())];
  if (log.chunk == nullptr || log.cursor + sizeof(Record) > kLogChunkBytes) {
    sync::LockGuard<sync::Mutex> guard(logs_mu_);
    log.chunk = static_cast<std::byte*>(log_slab_->Allocate(ctx->socket()));
    assert(log.chunk != nullptr && "PM exhausted");
    log.cursor = 64;  // skip a header-sized stride like the WAL layout
  }
  auto* record = reinterpret_cast<Record*>(log.chunk + log.cursor);
  record->key = key;
  record->value = value;
  record->meta = kRecordValid | (tombstone ? 1 : 0);
  // Sequential append: consecutive records share XPLines, so the XPBuffer
  // write-combines them (FlatStore's core property).
  pmsim::Persist(record, sizeof(Record));
  log.cursor += sizeof(Record);
  return record;
}

void FlatStore::Upsert(uint64_t key, uint64_t value) {
  assert(key != 0);
  const Record* record = Append(key, value, /*tombstone=*/false);
  sync::LockGuard<sync::SharedMutex> guard(mu_);
  index_[key] = record;
  pmsim::AdvanceCpu(16 * rt_.device().config().cost.dram_access_ns);
}

bool FlatStore::Lookup(uint64_t key, uint64_t* value_out) {
  const Record* record = nullptr;
  {
    sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
    auto it = index_.find(key);
    pmsim::AdvanceCpu(16 * rt_.device().config().cost.dram_access_ns);
    if (it == index_.end()) {
      return false;
    }
    record = it->second;
  }
  pmsim::ReadPm(record, sizeof(Record));  // one random log read
  if (record->meta & 1) {
    return false;
  }
  *value_out = record->value;
  return true;
}

bool FlatStore::Remove(uint64_t key) {
  // The tombstone record makes the delete durable; the volatile index entry
  // is simply dropped (it is rebuilt from the log on recovery anyway).
  Append(key, 0, /*tombstone=*/true);
  sync::LockGuard<sync::SharedMutex> guard(mu_);
  return index_.erase(key) > 0;
}

size_t FlatStore::Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) {
  // Collect the record pointers in key order, then chase them: each hop is a
  // random PM read because insertion order, not key order, dictates log
  // placement — FlatStore's scan penalty.
  std::vector<const Record*> records;
  records.reserve(count);
  {
    sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
    for (auto it = index_.lower_bound(start_key); it != index_.end() && records.size() < count;
         ++it) {
      records.push_back(it->second);
      pmsim::AdvanceCpu(6 * rt_.device().config().cost.dram_access_ns);
    }
  }
  size_t produced = 0;
  for (const Record* record : records) {
    pmsim::ReadPm(record, sizeof(Record));
    if ((record->meta & 1) == 0) {
      out[produced++] = {record->key, record->value};
    }
  }
  return produced;
}

kvindex::MemoryFootprint FlatStore::Footprint() const {
  kvindex::MemoryFootprint footprint;
  sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
  footprint.dram_bytes = index_.size() * 64;  // map node + pointer payload
  footprint.pm_bytes = rt_.pool().AllocatedBytes();
  return footprint;
}

}  // namespace cclbt::baselines
