#include "src/core/ccl_hash.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_set>

#include "src/pmsim/pmcheck.h"
#include "src/trace/trace.h"

namespace cclbt::core {

namespace {
uint32_t LineOfSlot(int slot) { return static_cast<uint32_t>((32 + 16 * slot) / 64); }
}  // namespace

CclHashTable::CclHashTable(kvindex::Runtime& runtime, const Options& options)
    : rt_(runtime), options_(options) {
  pmsim::ThreadContext boot_ctx(rt_.device(), 0, 0);

  pmem::SlabAllocator::Options slab_options;
  slab_options.slot_bytes = kLeafBytes;
  overflow_slab_ = pmem::SlabAllocator::Create(rt_.pool(), slab_options);
  log_arena_ = pmem::LogArena::Create(rt_.pool());
  wals_ = std::make_unique<WalSet>(*log_arena_, options_.max_workers);

  size_t directory_bytes = options_.num_buckets * kLeafBytes;
  buckets_ = static_cast<PmLeaf*>(rt_.pool().AllocateRaw(directory_bytes, 0));
  assert(buckets_ != nullptr && "PM exhausted for bucket directory");
  std::memset(static_cast<void*>(buckets_), 0, directory_bytes);
  {
    // The directory buckets are the table's leaves. The scope spans the
    // fence, which is where the device reads the component.
    trace::TraceScope scope(trace::Component::kLeaf);
    {
      // Persist the zeroed directory header lines lazily: a fresh bucket with
      // bitmap 0 is already its persistent state under Crash() only if flushed.
      // Formatting persist — content-equal to a fresh pool's zeroes by design.
      pmsim::PmCheckExpect format_expect(pmsim::PmCheckClass::kRedundantFlush);
      for (size_t b = 0; b < options_.num_buckets; b++) {
        pmsim::FlushLine(Bucket(b));
      }
    }
    pmsim::Fence();
  }

  auto* root = static_cast<TableRoot*>(rt_.pool().AllocateRaw(sizeof(TableRoot), 0));
  assert(root != nullptr);
  root->magic = kHashMagic;
  root->num_buckets = options_.num_buckets;
  root->directory_offset = rt_.pool().ToOffset(buckets_);
  root->slab_registry_offset = overflow_slab_->registry_offset();
  root->arena_registry_offset = log_arena_->registry_offset();
  pmsim::Persist(root, sizeof(TableRoot));
  rt_.pool().SetAppRoot(kAppRootSlot, rt_.pool().ToOffset(root));

  directory_.resize(options_.num_buckets, nullptr);
  for (size_t b = 0; b < options_.num_buckets; b++) {
    directory_[b] = BufferNode::New(Bucket(b), options_.nbatch);
  }
}

CclHashTable::CclHashTable(kvindex::Runtime& runtime, const Options& options, bool /*recover*/)
    : rt_(runtime), options_(options) {
  uint64_t root_offset = rt_.pool().GetAppRoot(kAppRootSlot);
  assert(root_offset != 0 && "no hash table to recover");
  auto* root = static_cast<TableRoot*>(rt_.pool().ToAddr(root_offset));
  assert(root->magic == kHashMagic);
  options_.num_buckets = root->num_buckets;

  pmem::SlabAllocator::Options slab_options;
  slab_options.slot_bytes = kLeafBytes;
  overflow_slab_ =
      pmem::SlabAllocator::Open(rt_.pool(), root->slab_registry_offset, slab_options);
  log_arena_ = pmem::LogArena::Open(rt_.pool(), root->arena_registry_offset);
  wals_ = std::make_unique<WalSet>(*log_arena_, options_.max_workers);
  buckets_ = static_cast<PmLeaf*>(rt_.pool().ToAddr(root->directory_offset));
  directory_.resize(options_.num_buckets, nullptr);
  for (size_t b = 0; b < options_.num_buckets; b++) {
    directory_[b] = BufferNode::New(Bucket(b), options_.nbatch);
  }
}

std::unique_ptr<CclHashTable> CclHashTable::Recover(kvindex::Runtime& runtime,
                                                    const Options& options) {
  auto table =
      std::unique_ptr<CclHashTable>(new CclHashTable(runtime, options, /*recover=*/true));
  pmsim::ThreadContext boot_ctx(runtime.device(), 0, 0);
  // Overflow buckets are live iff reachable from some directory bucket.
  std::unordered_set<uint64_t> reachable;
  for (size_t b = 0; b < table->options_.num_buckets; b++) {
    uint64_t next = table->Bucket(b)->next_offset();
    while (next != 0) {
      reachable.insert(next);
      table->overflow_buckets_.fetch_add(1, std::memory_order_relaxed);
      next = static_cast<PmLeaf*>(runtime.pool().ToAddr(next))->next_offset();
    }
  }
  table->overflow_slab_->Recover([&runtime, &reachable](const void* slot) {
    return reachable.contains(runtime.pool().ToOffset(slot));
  });
  table->ReplayLogs();
  return table;
}

CclHashTable::~CclHashTable() {
  for (BufferNode* bn : directory_) {
    BufferNode::Delete(bn);
  }
}

void CclHashTable::Upsert(uint64_t key, uint64_t value) {
  assert(key != 0);
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  assert(ctx != nullptr);
  BufferNode* bn = directory_[BucketIndex(key)];
  bn->Lock();
  if (!options_.buffering) {
    kvindex::KeyValue kv{key, value};
    BatchInsertBucket(bn, &kv, 1, rt_.ordo().Now(ctx->socket()));
    bn->Unlock();
    return;
  }
  BufferSlot* slots = bn->slots();
  int pos = bn->pos();
  int nbatch = bn->nbatch();
  uint32_t epoch = global_epoch_.load(std::memory_order_acquire);

  int current_match = -1;
  int stale_match = -1;
  for (int i = 0; i < nbatch; i++) {
    if (slots[i].key.load(std::memory_order_relaxed) == key) {
      (i < pos ? current_match : stale_match) = i;
    }
  }
  if (current_match >= 0) {
    uint64_t ts = rt_.ordo().Now(ctx->socket());
    bool logged = wals_->Append(ctx->worker_id(), static_cast<int>(epoch), key, value, ts);
    assert(logged);
    (void)logged;
    slots[current_match].value.store(value, std::memory_order_release);
    bn->SetEpochBit(current_match, epoch);
    bn->Unlock();
    return;
  }
  if (pos < nbatch) {
    uint64_t ts = rt_.ordo().Now(ctx->socket());
    bool logged = wals_->Append(ctx->worker_id(), static_cast<int>(epoch), key, value, ts);
    assert(logged);
    (void)logged;
    if (stale_match >= 0 && stale_match != pos) {
      slots[stale_match].key.store(slots[pos].key.load(std::memory_order_relaxed),
                                   std::memory_order_relaxed);
      slots[stale_match].value.store(slots[pos].value.load(std::memory_order_relaxed),
                                     std::memory_order_relaxed);
    }
    slots[pos].key.store(key, std::memory_order_relaxed);
    slots[pos].value.store(value, std::memory_order_release);
    bn->SetEpochBit(pos, epoch);
    bn->set_pos(pos + 1);
    bn->Unlock();
    return;
  }
  // Trigger write: flush buffered KVs + this one in one bucket batch;
  // write-conservative logging skips the WAL entry (§3.3).
  uint64_t ts = rt_.ordo().Now(ctx->socket());
  if (!options_.write_conservative_logging) {
    bool logged = wals_->Append(ctx->worker_id(), static_cast<int>(epoch), key, value, ts);
    assert(logged);
    (void)logged;
  }
  kvindex::KeyValue extra{key, value};
  FlushBuffer(bn, &extra, ts);
  bn->Unlock();
}

void CclHashTable::FlushBuffer(BufferNode* bn, const kvindex::KeyValue* extra, uint64_t ts) {
  BufferSlot* slots = bn->slots();
  int pos = bn->pos();
  kvindex::KeyValue batch[8];
  for (int i = 0; i < pos; i++) {
    batch[i] = {slots[i].key.load(std::memory_order_relaxed),
                slots[i].value.load(std::memory_order_relaxed)};
  }
  int n = pos;
  if (extra != nullptr) {
    batch[n++] = *extra;
  }
  BatchInsertBucket(bn, batch, n, ts);
  buffer_flushes_.fetch_add(1, std::memory_order_relaxed);
  bn->set_pos(0);
  if (extra != nullptr) {
    for (int i = 1; i < bn->nbatch(); i++) {
      if (slots[i].key.load(std::memory_order_relaxed) == extra->key) {
        slots[i].key.store(0, std::memory_order_relaxed);
        slots[i].value.store(0, std::memory_order_relaxed);
      }
    }
    slots[0].key.store(extra->key, std::memory_order_relaxed);
    slots[0].value.store(extra->value, std::memory_order_release);
  }
}

void CclHashTable::BatchInsertBucket(BufferNode* bn, kvindex::KeyValue* kvs, int n, uint64_t ts,
                                     bool update_ts) {
  trace::TraceScope scope(trace::Component::kLeaf);
  PmLeaf* bucket = bn->leaf();
  for (int i = 0; i < n; i++) {
    const kvindex::KeyValue& kv = kvs[i];
    // Walk the bucket chain looking for the key; remember the first bucket
    // with a free slot for inserts.
    PmLeaf* node = bucket;
    PmLeaf* free_bucket = nullptr;
    int free_slot = -1;
    PmLeaf* found_bucket = nullptr;
    int found_slot = -1;
    PmLeaf* tail = node;
    while (node != nullptr) {
      pmsim::ReadPm(node, 64);
      int slot = node->FindSlot(kv.key);
      if (slot >= 0) {
        found_bucket = node;
        found_slot = slot;
        break;
      }
      if (free_bucket == nullptr) {
        int candidate = node->FreeSlot();
        if (candidate >= 0) {
          free_bucket = node;
          free_slot = candidate;
        }
      }
      tail = node;
      uint64_t next = node->next_offset();
      node = next == 0 ? nullptr : static_cast<PmLeaf*>(rt_.pool().ToAddr(next));
    }
    if (kv.value == kTombstone) {
      if (found_bucket != nullptr) {
        // Hash recovery recomputes routes from key hashes, so (unlike the
        // tree) the minimum key needs no fence: clear the bit outright.
        found_bucket->meta.store(
            MakeMeta(found_bucket->bitmap() & ~(1ULL << found_slot),
                     found_bucket->next_offset()),
            std::memory_order_release);
        if (update_ts) {
          found_bucket->timestamp = ts;
        }
        pmsim::FlushLine(found_bucket);
        pmsim::Fence();
      }
      continue;
    }
    if (found_bucket != nullptr) {
      found_bucket->kvs[found_slot].value = kv.value;
      pmsim::FlushLine(reinterpret_cast<const std::byte*>(found_bucket) +
                       LineOfSlot(found_slot) * 64);
      if (update_ts) {
        found_bucket->timestamp = ts;
        pmsim::FlushLine(found_bucket);
      }
      pmsim::Fence();
      continue;
    }
    if (free_bucket == nullptr) {
      // Chain a fresh overflow bucket (CCEH-stash style).
      pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
      auto* fresh = static_cast<PmLeaf*>(overflow_slab_->Allocate(ctx->socket()));
      assert(fresh != nullptr && "PM exhausted");
      std::memset(static_cast<void*>(fresh), 0, kLeafBytes);
      {
        // Formatting persist of the zeroed overflow bucket before it is
        // linked; clean-line flushes on a fresh slab slot are intentional.
        pmsim::PmCheckExpect format_expect(pmsim::PmCheckClass::kRedundantFlush);
        pmsim::Persist(fresh, kLeafBytes);
      }
      tail->meta.store(MakeMeta(tail->bitmap(), rt_.pool().ToOffset(fresh)),
                       std::memory_order_release);
      pmsim::FlushLine(tail);
      pmsim::Fence();
      overflow_buckets_.fetch_add(1, std::memory_order_relaxed);
      free_bucket = fresh;
      free_slot = 0;
    }
    free_bucket->kvs[free_slot] = kv;
    free_bucket->fingerprints[free_slot] = Fingerprint8(kv.key);
    pmsim::FlushLine(reinterpret_cast<const std::byte*>(free_bucket) + LineOfSlot(free_slot) * 64);
    pmsim::Fence();
    if (update_ts) {
      free_bucket->timestamp = ts;
    }
    free_bucket->meta.store(
        MakeMeta(free_bucket->bitmap() | (1ULL << free_slot), free_bucket->next_offset()),
        std::memory_order_release);
    pmsim::FlushLine(free_bucket);
    pmsim::Fence();
  }
}

bool CclHashTable::Lookup(uint64_t key, uint64_t* value_out) {
  BufferNode* bn = directory_[BucketIndex(key)];
  for (;;) {
    uint64_t snapshot = bn->ReadBegin();
    if (options_.buffering) {
      BufferSlot* slots = bn->slots();
      for (int i = 0; i < bn->nbatch(); i++) {
        if (slots[i].key.load(std::memory_order_acquire) == key) {
          uint64_t value = slots[i].value.load(std::memory_order_acquire);
          if (!bn->ReadValidate(snapshot)) {
            break;
          }
          if (value == kTombstone) {
            return false;
          }
          *value_out = value;
          return true;
        }
      }
      if (!bn->ReadValidate(snapshot)) {
        continue;
      }
    }
    PmLeaf* node = bn->leaf();
    while (node != nullptr) {
      pmsim::ReadPm(node, kLeafBytes);
      int slot = node->FindSlot(key);
      if (slot >= 0) {
        uint64_t value = node->kvs[slot].value;
        if (!bn->ReadValidate(snapshot)) {
          break;  // retry from the top
        }
        *value_out = value;
        return true;
      }
      uint64_t next = node->next_offset();
      node = next == 0 ? nullptr : static_cast<PmLeaf*>(rt_.pool().ToAddr(next));
    }
    if (bn->ReadValidate(snapshot)) {
      return false;
    }
  }
}

bool CclHashTable::Remove(uint64_t key) {
  Upsert(key, kTombstone);
  return true;
}

void CclHashTable::RunGcOnce() {
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  assert(ctx != nullptr);
  uint32_t old_epoch = global_epoch_.load(std::memory_order_acquire);
  uint32_t new_epoch = old_epoch ^ 1u;
  global_epoch_.store(new_epoch, std::memory_order_release);
  for (BufferNode* bn : directory_) {
    bn->Lock();
    BufferSlot* slots = bn->slots();
    int pos = bn->pos();
    for (int i = 0; i < pos; i++) {
      if (bn->EpochBit(i) == old_epoch) {
        uint64_t ts = rt_.ordo().Now(ctx->socket());
        bool logged = wals_->Append(ctx->worker_id(), static_cast<int>(new_epoch),
                                    slots[i].key.load(std::memory_order_relaxed),
                                    slots[i].value.load(std::memory_order_relaxed), ts);
        assert(logged);
        (void)logged;
        bn->SetEpochBit(i, new_epoch);
      }
    }
    bn->Unlock();
  }
  wals_->ReleaseEpoch(static_cast<int>(old_epoch));
}

void CclHashTable::ReplayLogs() {
  // Collect all valid entries, sort by timestamp, apply where newer than the
  // bucket chain's flush timestamp. Per-bucket timestamps follow the same
  // discipline as tree leaves; routing is exact (hash of the key).
  std::vector<LogEntry> entries;
  WalSet::ScanAll(*log_arena_, [&entries](const LogEntry& entry) { entries.push_back(entry); });
  std::sort(entries.begin(), entries.end(),
            [](const LogEntry& a, const LogEntry& b) { return a.timestamp() < b.timestamp(); });
  for (const LogEntry& entry : entries) {
    BufferNode* bn = directory_[BucketIndex(entry.key)];
    // Conservative filter: the head bucket's timestamp lags flushes that
    // landed only in overflow buckets, so some already-flushed entries are
    // re-applied — harmless, the application below is idempotent.
    if (entry.timestamp() <= bn->leaf()->timestamp) {
      continue;
    }
    kvindex::KeyValue kv{entry.key, entry.value};
    BatchInsertBucket(bn, &kv, 1, entry.timestamp(), /*update_ts=*/false);
  }
  WalSet::ReclaimAll(*log_arena_);  // all chunks are dead after replay
  // Reset bucket timestamps (same rationale as tree recovery).
  bool flushed = false;
  for (size_t b = 0; b < options_.num_buckets; b++) {
    if (Bucket(b)->timestamp != 0) {
      Bucket(b)->timestamp = 0;
      pmsim::FlushLine(Bucket(b));
      flushed = true;
    }
  }
  if (flushed) {
    pmsim::Fence();
  }
}

}  // namespace cclbt::core
