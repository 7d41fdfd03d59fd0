#include "src/core/ccl_hash.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>
#include <unordered_set>

#include "src/pmsim/pmcheck.h"
#include "src/trace/trace.h"

namespace cclbt::core {

namespace {

// One chain bucket's part of a batch: its staged bitmap and next pointer,
// the data lines written, and whether line 0 must be committed.
struct StagedBucket {
  PmLeaf* bucket;
  uint64_t bitmap;
  uint64_t next;
  uint32_t dirty_lines;
  bool header_changed;
  // A store rewrote bytes equal to the slot's current content, so a flush
  // of this bucket may be byte-identical to its durable image (a replay
  // entry applied before the crash).
  bool identical_rewrite;
};

// A batch of at most 8 KVs touches at most 16 buckets: one per KV, plus
// the tail each new overflow bucket is linked from.
constexpr int kMaxStaged = 16;

}  // namespace

CclHashTable::CclHashTable(kvindex::Runtime& runtime, const TreeOptions& options,
                           size_t num_buckets, kvindex::Lifecycle lifecycle)
    : CclIndex(runtime, options, lifecycle, kAppRootSlot, kHashMagic, /*own_words=*/2),
      num_buckets_(num_buckets) {
  // An attached table binds to the persistent image in Recover(), which
  // validates the root record instead of asserting on it.
  if (lifecycle == kvindex::Lifecycle::kCreate) {
    Create();
  }
}

void CclHashTable::Format(uint64_t* own) {
  size_t directory_bytes = num_buckets_ * kLeafBytes;
  buckets_ = static_cast<PmLeaf*>(rt_.pool().AllocateRaw(directory_bytes, home_socket_));
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
      for (size_t b = 0; b < num_buckets_; b++) {
        pmsim::FlushLine(Bucket(b));
      }
    }
    pmsim::Fence();
  }
  own[0] = num_buckets_;
  own[1] = rt_.pool().ToOffset(buckets_);
  directory_.resize(num_buckets_, nullptr);
  for (size_t b = 0; b < num_buckets_; b++) {
    directory_[b] = BufferNode::New(Bucket(b), options_.nbatch);
  }
}

bool CclHashTable::Rebuild(const uint64_t* own, uint64_t floor, uint64_t* max_ts) {
  num_buckets_ = own[0];
  if (num_buckets_ == 0 || num_buckets_ > rt_.device().config().pool_bytes / kLeafBytes ||
      !rt_.pool().Holds(own[1], num_buckets_ * kLeafBytes)) {
    return false;
  }
  buckets_ = static_cast<PmLeaf*>(rt_.pool().ToAddr(own[1]));

  // Overflow buckets are live iff reachable from some directory bucket.
  std::unordered_set<uint64_t> reachable;
  directory_.reserve(num_buckets_);
  for (size_t b = 0; b < num_buckets_; b++) {
    directory_.push_back(BufferNode::New(Bucket(b), options_.nbatch));
    uint64_t chain_ts = 0;
    for (PmLeaf* node = Bucket(b); node != nullptr; node = BucketAt(node->next_offset())) {
      pmsim::ReadPm(node, 64);
      chain_ts = std::max(chain_ts, node->timestamp);
      const uint64_t next = node->next_offset();
      if (next != 0 && (!leaf_slab_->IsSlot(next) || !reachable.insert(next).second)) {
        return false;  // the chain leaves the overflow slab or loops back on itself
      }
    }
    directory_.back()->set_recovery_orig_ts(std::max(chain_ts, floor));
    *max_ts = std::max(*max_ts, chain_ts);
  }
  leaf_slab_->Recover([this, &reachable](const void* slot) {
    return reachable.contains(rt_.pool().ToOffset(slot));
  });
  return true;
}

CclHashTable::~CclHashTable() {
  for (BufferNode* bn : directory_) {
    BufferNode::Delete(bn);
  }
}

BufferNode* CclHashTable::LockNode(uint64_t key) {
  ChargeDram(1);  // the directory slot
  BufferNode* bn = directory_[BucketIndex(key)];
  bn->Lock();
  return bn;
}

void CclHashTable::BatchInsertBucket(BufferNode* bn, const kvindex::KeyValue* kvs, int n,
                                     uint64_t ts) {
  assert(n <= 8);
  trace::TraceScope scope(trace::Component::kLeaf);
  StagedBucket staged[kMaxStaged] = {};
  int num_staged = 0;
  auto find = [&](const PmLeaf* bucket) -> StagedBucket* {
    for (int s = 0; s < num_staged; s++) {
      if (staged[s].bucket == bucket) {
        return &staged[s];
      }
    }
    return nullptr;
  };
  auto stage = [&](PmLeaf* bucket) -> StagedBucket& {
    if (StagedBucket* found = find(bucket)) {
      return *found;
    }
    assert(num_staged < kMaxStaged);
    staged[num_staged] = {bucket, bucket->bitmap(), bucket->next_offset(), 0, false, false};
    return staged[num_staged++];
  };

  // Stage every KV: walk the chain's staged view for the key, remembering
  // the first bucket with a free slot for inserts. Every walk starts at the
  // head, so the buckets read so far are a prefix of the chain; the batch
  // reads each bucket's header line once.
  int read_prefix = 0;
  for (int i = 0; i < n; i++) {
    const kvindex::KeyValue& kv = kvs[i];
    PmLeaf* found_bucket = nullptr;
    int found_slot = -1;
    PmLeaf* free_bucket = nullptr;
    int free_slot = -1;
    PmLeaf* tail = nullptr;
    int depth = 0;
    for (PmLeaf* node = bn->leaf(); node != nullptr; depth++) {
      if (depth == read_prefix) {
        pmsim::ReadPm(node, 64);
        read_prefix++;
      }
      const StagedBucket* st = find(node);
      uint64_t bitmap = st != nullptr ? st->bitmap : node->bitmap();
      int slot = node->FindSlot(kv.key, bitmap);
      if (slot >= 0) {
        found_bucket = node;
        found_slot = slot;
        break;
      }
      // A slot this batch cleared keeps its old key valid in PM until the
      // header commit, so only a later batch may reuse it.
      uint64_t taken = bitmap | node->bitmap();
      if (free_bucket == nullptr && taken != kBitmapMask) {
        free_bucket = node;
        free_slot = __builtin_ctzll(~taken & kBitmapMask);
      }
      tail = node;
      node = BucketAt(st != nullptr ? st->next : node->next_offset());
    }
    if (kv.value == kTombstone) {
      if (found_bucket != nullptr) {
        // Hash recovery recomputes routes from key hashes, so (unlike the
        // tree) the minimum key needs no fence: clear the bit outright.
        StagedBucket& st = stage(found_bucket);
        st.bitmap &= ~(1ULL << found_slot);
        st.header_changed = true;
      }
      continue;
    }
    if (found_bucket != nullptr) {
      StagedBucket& st = stage(found_bucket);
      st.identical_rewrite |= found_bucket->kvs[found_slot].value == kv.value;
      found_bucket->kvs[found_slot].value = kv.value;
      st.dirty_lines |= 1u << LineOfSlot(found_slot);
      continue;
    }
    if (free_bucket == nullptr) {
      // Chain a fresh overflow bucket (CCEH-stash style). Its zeroed format
      // is durable before the tail's commit publishes the link.
      pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
      auto* fresh = static_cast<PmLeaf*>(leaf_slab_->Allocate(ctx->socket()));
      assert(fresh != nullptr && "PM exhausted");
      std::memset(static_cast<void*>(fresh), 0, kLeafBytes);
      {
        // Formatting persist of the zeroed overflow bucket before it is
        // linked; clean-line flushes on a fresh slab slot are intentional.
        pmsim::PmCheckExpect format_expect(pmsim::PmCheckClass::kRedundantFlush);
        pmsim::Persist(fresh, kLeafBytes);
      }
      StagedBucket& link = stage(tail);
      link.next = rt_.pool().ToOffset(fresh);
      link.header_changed = true;
      free_bucket = fresh;
      free_slot = 0;
    }
    StagedBucket& st = stage(free_bucket);
    st.identical_rewrite |= free_bucket->kvs[free_slot].key == kv.key &&
                            free_bucket->kvs[free_slot].value == kv.value;
    free_bucket->kvs[free_slot] = kv;
    free_bucket->fingerprints[free_slot] = Fingerprint8(kv.key);
    st.bitmap |= 1ULL << free_slot;
    st.dirty_lines |= 1u << LineOfSlot(free_slot);
    st.header_changed = true;
  }

  if (ts != 0 && num_staged == 0) {
    // Only tombstones of absent keys: the head's header commit carries the
    // stamp, which outranks every older log entry of the batch's keys.
    stage(bn->leaf());
  }

  // Commit each staged bucket once, the way CclBTree::BatchInsertLeaf
  // commits a leaf: its data lines, fence, then its header line, fence. The
  // bucket committed last carries the timestamp, so a crash before it
  // leaves the chain's largest timestamp below every logged entry of the
  // batch and replay restores them.
  for (int s = 0; s < num_staged; s++) {
    StagedBucket& st = staged[s];
    std::optional<pmsim::PmCheckExpect> rewrite_expect;
    if (st.identical_rewrite) {
      rewrite_expect.emplace(pmsim::PmCheckClass::kRedundantFlush);
    }
    auto* lines = reinterpret_cast<const std::byte*>(st.bucket);
    bool flushed_any = false;
    for (uint32_t line = 1; line < 4; line++) {  // the header line commits below
      if ((st.dirty_lines >> line) & 1) {
        pmsim::FlushLine(lines + line * 64);
        flushed_any = true;
      }
    }
    if (flushed_any) {
      pmsim::Fence();
    }
    bool stamp = ts != 0 && s + 1 == num_staged;
    if (!stamp && !st.header_changed && (st.dirty_lines & 1) == 0) {
      continue;
    }
    if (stamp) {
      st.bucket->timestamp = ts;
    }
    st.bucket->meta.store(MakeMeta(st.bitmap, st.next), std::memory_order_release);
    pmsim::FlushLine(st.bucket);
    pmsim::Fence();
  }
}

bool CclHashTable::Lookup(uint64_t key, uint64_t* value_out) {
  ChargeDram(1);  // the directory slot
  BufferNode* bn = directory_[BucketIndex(key)];
  for (;;) {
    uint64_t snapshot = bn->ReadBegin();
    ChargeDram(static_cast<uint64_t>(bn->nbatch()));
    if (const uint32_t match = bn->KeyMatch(key); match != 0) {
      uint64_t value = bn->slots()[__builtin_ctz(match)].value.load(std::memory_order_acquire);
      if (!bn->ReadValidate(snapshot)) {
        continue;
      }
      dram_hits_.fetch_add(1, std::memory_order_relaxed);
      if (value == kTombstone) {
        return false;
      }
      *value_out = value;
      return true;
    }
    if (!bn->ReadValidate(snapshot)) {
      continue;
    }
    for (PmLeaf* node = bn->leaf(); node != nullptr; node = BucketAt(node->next_offset())) {
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
    }
    if (bn->ReadValidate(snapshot)) {
      return false;
    }
  }
}

size_t CclHashTable::Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) {
  std::vector<kvindex::KeyValue> found;
  for (BufferNode* bn : directory_) {
    const auto mark = static_cast<std::ptrdiff_t>(found.size());
    uint64_t snapshot = 0;
    do {
      snapshot = bn->ReadBegin();
      found.resize(static_cast<size_t>(mark));
      // The buffered slots first, tombstones included: they override the chain.
      for (int i = 0; i < bn->nbatch(); i++) {
        uint64_t key = bn->slots()[i].key.load(std::memory_order_acquire);
        if (key != 0) {
          found.push_back({key, bn->slots()[i].value.load(std::memory_order_acquire)});
        }
      }
      const auto buffered_end = static_cast<std::ptrdiff_t>(found.size());
      for (PmLeaf* node = bn->leaf(); node != nullptr; node = BucketAt(node->next_offset())) {
        pmsim::ReadPm(node, kLeafBytes);
        for (uint64_t bits = node->bitmap(); bits != 0; bits &= bits - 1) {
          kvindex::KeyValue kv = node->kvs[__builtin_ctzll(bits)];
          if (std::none_of(found.begin() + mark, found.begin() + buffered_end,
                           [&kv](const kvindex::KeyValue& b) { return b.key == kv.key; })) {
            found.push_back(kv);
          }
        }
      }
    } while (!bn->ReadValidate(snapshot));
  }
  std::erase_if(found, [start_key](const kvindex::KeyValue& kv) {
    return kv.key < start_key || kv.value == kTombstone;
  });
  size_t n = std::min(count, found.size());
  std::partial_sort(found.begin(), found.begin() + static_cast<std::ptrdiff_t>(n), found.end(),
                    [](const kvindex::KeyValue& a, const kvindex::KeyValue& b) {
                      return a.key < b.key;
                    });
  std::copy_n(found.begin(), n, out);
  return n;
}

kvindex::MemoryFootprint CclHashTable::Footprint() const {
  kvindex::MemoryFootprint footprint;
  footprint.dram_bytes = num_buckets_ * BufferNode::PackedBytes(options_.nbatch);
  footprint.pm_bytes = rt_.pool().AllocatedBytes();
  return footprint;
}

}  // namespace cclbt::core
