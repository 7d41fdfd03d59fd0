#include "src/baselines/leaf_tree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/pmsim/pmcheck.h"
#include "src/trace/trace.h"

namespace cclbt::baselines {

using core::BufferNode;
using core::kBitmapMask;
using core::kLeafBytes;
using core::kLeafSlots;
using core::LineOfSlot;
using core::MakeMeta;
using core::PmLeaf;

LeafTree::LeafTree(kvindex::Runtime& runtime, const Options& options)
    : rt_(runtime), options_(options) {
  pmsim::ThreadContext boot_ctx(rt_.device(), 0, 0);
  pmem::SlabAllocator::Options slab_options;
  slab_options.slot_bytes = kLeafBytes;
  leaf_slab_ = pmem::SlabAllocator::Create(rt_.pool(), slab_options);
  head_leaf_ = static_cast<PmLeaf*>(leaf_slab_->Allocate(0));
  assert(head_leaf_ != nullptr);
  std::memset(static_cast<void*>(head_leaf_), 0, kLeafBytes);
  {
    // Formatting persist: the empty head leaf must be durable even though a
    // fresh pool already holds zeroes (a reused slot would not).
    trace::TraceScope scope(trace::Component::kLeaf);
    pmsim::PmCheckExpect format_expect(pmsim::PmCheckClass::kRedundantFlush);
    pmsim::Persist(head_leaf_, kLeafBytes);
  }
  inner_.Insert(0, NewHandle(head_leaf_, 0));
}

LeafTree::~LeafTree() {
  sync::LockGuard<sync::Mutex> guard(handles_mu_);
  for (BufferNode* handle : handles_) {
    BufferNode::Delete(handle);
  }
}

BufferNode* LeafTree::NewHandle(PmLeaf* leaf, uint64_t sep) {
  BufferNode* handle = BufferNode::New(leaf, /*nbatch=*/0);
  handle->set_sep(sep);
  sync::LockGuard<sync::Mutex> guard(handles_mu_);
  handles_.push_back(handle);
  return handle;
}

BufferNode* LeafTree::RouteAndLock(uint64_t key) {
  for (;;) {
    bool found = false;
    BufferNode* handle = inner_.RouteFloor(key, &found);
    assert(found);
    if (!handle->TryLock()) {
      std::this_thread::yield();
      continue;
    }
    if (handle->dead() || inner_.RouteFloor(key) != handle) {
      handle->Unlock();
      continue;
    }
    return handle;
  }
}

void LeafTree::Upsert(uint64_t key, uint64_t value) {
  assert(key != 0);
  // Every PM write of an upsert, splits included, is leaf traffic: the inner
  // index lives in DRAM.
  trace::TraceScope scope(trace::Component::kLeaf);
  pmsim::AdvanceCpu(8 * rt_.device().config().cost.dram_access_ns);
  BufferNode* handle = RouteAndLock(key);
  if (options_.policy == LeafPolicy::kSorted) {
    InsertSorted(handle, key, value);
  } else {
    InsertUnsorted(handle, key, value);
  }
  handle->Unlock();
}

void LeafTree::InsertUnsorted(BufferNode* handle, uint64_t key, uint64_t value) {
  for (;;) {
    PmLeaf* leaf = handle->leaf();
    pmsim::ReadPm(leaf, 64);  // header read (bitmap + fingerprints)
    int slot = leaf->FindSlot(key);
    if (slot >= 0) {
      // In-place update: one line flush, one fence.
      leaf->kvs[slot].value = value;
      pmsim::FlushLine(reinterpret_cast<const std::byte*>(leaf) + LineOfSlot(slot) * 64);
      pmsim::Fence();
      return;
    }
    uint64_t bitmap = leaf->bitmap();
    int free = -1;
    if (options_.policy == LeafPolicy::kLbTree) {
      // Entry moving: prefer the header-line slots so data + metadata can be
      // persisted with a single cacheline flush.
      for (int candidate : {0, 1}) {
        if (!((bitmap >> candidate) & 1)) {
          free = candidate;
          break;
        }
      }
    }
    if (free < 0 && bitmap != kBitmapMask) {
      free = __builtin_ctzll(~bitmap & kBitmapMask);
    }
    if (free < 0) {
      BufferNode* right = SplitLeaf(handle);  // returned locked
      if (key >= right->sep()) {
        InsertUnsorted(right, key, value);
        right->Unlock();
        return;
      }
      right->Unlock();
      continue;  // retry on the (now non-full) left leaf
    }
    leaf->kvs[free] = kvindex::KeyValue{key, value};
    leaf->fingerprints[free] = Fingerprint8(key);
    uint64_t next = leaf->next_offset();
    if (options_.policy == LeafPolicy::kLbTree) {
      leaf->meta.store(MakeMeta(bitmap | (1ULL << free), next), std::memory_order_release);
      if (LineOfSlot(free) != 0) {
        pmsim::FlushLine(reinterpret_cast<const std::byte*>(leaf) + LineOfSlot(free) * 64);
      }
      pmsim::FlushLine(leaf);
      pmsim::Fence();  // single fence; single flush when the slot is in line 0
    } else {
      // FPTree: data first (flush+fence), then the bitmap commit (flush+fence).
      pmsim::FlushLine(reinterpret_cast<const std::byte*>(leaf) + LineOfSlot(free) * 64);
      pmsim::Fence();
      leaf->meta.store(MakeMeta(bitmap | (1ULL << free), next), std::memory_order_release);
      pmsim::FlushLine(leaf);
      pmsim::Fence();
    }
    return;
  }
}

void LeafTree::InsertSorted(BufferNode* handle, uint64_t key, uint64_t value) {
  for (;;) {
    PmLeaf* leaf = handle->leaf();
    pmsim::ReadPm(leaf, kLeafBytes);
    int count = leaf->ValidCount();
    // Sorted leaves keep entries packed in slots [0, count).
    int pos = 0;
    while (pos < count && leaf->kvs[pos].key < key) {
      pos++;
    }
    if (pos < count && leaf->kvs[pos].key == key) {
      leaf->kvs[pos].value = value;
      pmsim::FlushLine(reinterpret_cast<const std::byte*>(leaf) + LineOfSlot(pos) * 64);
      pmsim::Fence();
      return;
    }
    if (count == kLeafSlots) {
      BufferNode* right = SplitLeaf(handle);
      if (key >= right->sep()) {
        InsertSorted(right, key, value);
        right->Unlock();
        return;
      }
      right->Unlock();
      continue;
    }
    // Shift-based insert: every moved entry dirties its line (the cost the
    // unsorted designs avoid).
    uint32_t dirty_lines = 1u << LineOfSlot(pos);
    for (int i = count; i > pos; i--) {
      leaf->kvs[i] = leaf->kvs[i - 1];
      leaf->fingerprints[i] = leaf->fingerprints[i - 1];
      dirty_lines |= 1u << LineOfSlot(i);
    }
    leaf->kvs[pos] = kvindex::KeyValue{key, value};
    leaf->fingerprints[pos] = Fingerprint8(key);
    bool flushed_any = false;
    for (uint32_t line = 1; line < 4; line++) {
      if ((dirty_lines >> line) & 1) {
        pmsim::FlushLine(reinterpret_cast<const std::byte*>(leaf) + line * 64);
        flushed_any = true;
      }
    }
    // When every touched slot sits in the header line there is nothing to
    // order here: the meta flush below persists data + commit atomically in
    // one line, and a fence with no pending lines is pure cost (pmcheck:
    // useless fence).
    if (flushed_any) {
      pmsim::Fence();
    }
    uint64_t bitmap = (count + 1 == kLeafSlots) ? kBitmapMask : ((1ULL << (count + 1)) - 1);
    leaf->meta.store(MakeMeta(bitmap, leaf->next_offset()), std::memory_order_release);
    pmsim::FlushLine(leaf);
    pmsim::Fence();
    return;
  }
}

BufferNode* LeafTree::SplitLeaf(BufferNode* handle) {
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  PmLeaf* leaf = handle->leaf();
  uint64_t bitmap = leaf->bitmap();
  uint64_t keys[16];
  int n = 0;
  for (int slot = 0; slot < kLeafSlots; slot++) {
    if ((bitmap >> slot) & 1) {
      keys[n++] = leaf->kvs[slot].key;
    }
  }
  std::sort(keys, keys + n);
  uint64_t split_key = keys[n / 2];

  int socket = options_.numa_local_alloc ? ctx->socket() : 0;
  auto* new_leaf = static_cast<PmLeaf*>(leaf_slab_->Allocate(socket));
  assert(new_leaf != nullptr && "PM exhausted");
  std::memset(static_cast<void*>(new_leaf), 0, kLeafBytes);
  uint64_t new_bitmap = 0;
  uint64_t old_bitmap = bitmap;
  int out = 0;
  for (int slot = 0; slot < kLeafSlots; slot++) {
    if (((bitmap >> slot) & 1) && leaf->kvs[slot].key >= split_key) {
      new_leaf->kvs[out] = leaf->kvs[slot];
      new_leaf->fingerprints[out] = leaf->fingerprints[slot];
      new_bitmap |= 1ULL << out;
      old_bitmap &= ~(1ULL << slot);
      out++;
    }
  }
  new_leaf->meta.store(MakeMeta(new_bitmap, leaf->next_offset()), std::memory_order_release);
  // Persist the header line plus only the lines holding slots in new_bitmap:
  // no reader or rebuild ever looks at a slot outside the bitmap, so the
  // empty tail lines of the fresh leaf need no flush (pmcheck: redundant).
  uint32_t new_dirty = 1u;
  for (int slot = 0; slot < kLeafSlots; slot++) {
    if ((new_bitmap >> slot) & 1) {
      new_dirty |= 1u << LineOfSlot(slot);
    }
  }
  for (uint32_t line = 0; line < 4; line++) {
    if ((new_dirty >> line) & 1) {
      pmsim::FlushLine(reinterpret_cast<const std::byte*>(new_leaf) + line * 64);
    }
  }
  pmsim::Fence();

  if (options_.policy == LeafPolicy::kSorted) {
    // Keep the left half packed: compact [0, mid) (already a prefix because
    // sorted leaves are packed; the >=split entries are the suffix).
    old_bitmap = (1ULL << (n - out)) - 1;
  }
  leaf->meta.store(MakeMeta(old_bitmap, rt_.pool().ToOffset(new_leaf)),
                   std::memory_order_release);
  pmsim::FlushLine(leaf);
  pmsim::Fence();

  BufferNode* right = NewHandle(new_leaf, split_key);
  right->TryLock();  // uncontended: not yet published
  inner_.Insert(split_key, right);
  return right;
}

bool LeafTree::Lookup(uint64_t key, uint64_t* value_out) {
  pmsim::AdvanceCpu(8 * rt_.device().config().cost.dram_access_ns);
  for (;;) {
    bool found = false;
    BufferNode* handle = inner_.RouteFloor(key, &found);
    if (!found) {
      return false;
    }
    uint64_t snapshot = handle->ReadBegin();
    if (handle->dead() || inner_.RouteFloor(key) != handle) {
      continue;
    }
    PmLeaf* leaf = handle->leaf();
    pmsim::ReadPm(leaf, kLeafBytes);
    int slot = leaf->FindSlot(key);
    uint64_t value = slot >= 0 ? leaf->kvs[slot].value : 0;
    if (!handle->ReadValidate(snapshot)) {
      continue;
    }
    if (slot < 0) {
      return false;
    }
    *value_out = value;
    return true;
  }
}

bool LeafTree::Remove(uint64_t key) {
  trace::TraceScope scope(trace::Component::kLeaf);
  pmsim::AdvanceCpu(8 * rt_.device().config().cost.dram_access_ns);
  BufferNode* handle = RouteAndLock(key);
  PmLeaf* leaf = handle->leaf();
  pmsim::ReadPm(leaf, 64);
  int slot = leaf->FindSlot(key);
  if (slot < 0) {
    handle->Unlock();
    return false;
  }
  if (options_.policy == LeafPolicy::kSorted) {
    // Shift-remove keeps the prefix packed.
    int count = leaf->ValidCount();
    uint32_t dirty_lines = 0;
    for (int i = slot; i + 1 < count; i++) {
      leaf->kvs[i] = leaf->kvs[i + 1];
      leaf->fingerprints[i] = leaf->fingerprints[i + 1];
      dirty_lines |= 1u << LineOfSlot(i);
    }
    bool flushed_any = false;
    for (uint32_t line = 1; line < 4; line++) {
      if ((dirty_lines >> line) & 1) {
        pmsim::FlushLine(reinterpret_cast<const std::byte*>(leaf) + line * 64);
        flushed_any = true;
      }
    }
    // Removing the tail entry (or shifting only header-line slots) dirties no
    // data line: the meta flush below persists shift + commit atomically in
    // one line, and an extra fence here would order nothing (pmcheck: useless
    // fence).
    if (flushed_any) {
      pmsim::Fence();
    }
    leaf->meta.store(MakeMeta((1ULL << (count - 1)) - 1, leaf->next_offset()),
                     std::memory_order_release);
  } else {
    leaf->meta.store(MakeMeta(leaf->bitmap() & ~(1ULL << slot), leaf->next_offset()),
                     std::memory_order_release);
  }
  pmsim::FlushLine(leaf);
  pmsim::Fence();
  handle->Unlock();
  return true;
}

size_t LeafTree::Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) {
  size_t produced = 0;
  uint64_t cursor = start_key;
  std::vector<kvindex::KeyValue> window;
  window.reserve(kLeafSlots);
  for (;;) {
    if (produced >= count) {
      break;
    }
    bool found = false;
    BufferNode* handle = inner_.RouteFloor(cursor, &found);
    if (!found) {
      break;
    }
    uint64_t next_sep = 0;
    BufferNode* next_handle = nullptr;
    bool have_next = inner_.NextEntry(cursor, &next_sep, &next_handle);

    window.clear();
    uint64_t snapshot = handle->ReadBegin();
    if (handle->dead()) {
      continue;
    }
    PmLeaf leaf_copy;
    std::memcpy(static_cast<void*>(&leaf_copy), static_cast<const void*>(handle->leaf()),
                kLeafBytes);
    pmsim::ReadPm(handle->leaf(), kLeafBytes);
    if (!handle->ReadValidate(snapshot)) {
      continue;
    }
    uint64_t bits = core::MetaBitmap(leaf_copy.meta.load(std::memory_order_relaxed));
    for (int slot = 0; slot < kLeafSlots; slot++) {
      if ((bits >> slot) & 1) {
        window.push_back(leaf_copy.kvs[slot]);
      }
    }
    std::sort(window.begin(), window.end(),
              [](const kvindex::KeyValue& a, const kvindex::KeyValue& b) { return a.key < b.key; });
    pmsim::AdvanceCpu(window.size() * 6 * rt_.device().config().cost.dram_access_ns);
    for (const auto& entry : window) {
      if (entry.key < cursor) {
        continue;
      }
      if (have_next && entry.key >= next_sep) {
        break;
      }
      out[produced++] = entry;
      if (produced >= count) {
        break;
      }
    }
    if (!have_next) {
      break;
    }
    cursor = next_sep;
  }
  return produced;
}

kvindex::MemoryFootprint LeafTree::Footprint() const {
  kvindex::MemoryFootprint footprint;
  // Handles (8 B packed equivalent: lock + pointer) + the inner index.
  footprint.dram_bytes = inner_.MemoryBytes() + handles_.size() * 16;
  footprint.pm_bytes = rt_.pool().AllocatedBytes();
  return footprint;
}

}  // namespace cclbt::baselines
