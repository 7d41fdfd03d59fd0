#include "src/baselines/dptree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/pmsim/pmcheck.h"
#include "src/trace/trace.h"

namespace cclbt::baselines {

namespace {
constexpr uint64_t kDeleteMarker = 0;  // buffered tombstone
}

DpTree::DpTree(kvindex::Runtime& runtime, const Options& options)
    : rt_(runtime), options_(options) {
  pmsim::ThreadContext boot_ctx(rt_.device(), 0, 0);
  log_slab_ = pmem::SlabAllocator::Create(rt_.pool(), core::kLogSlabOptions);
  wals_ = std::make_unique<core::WalSet>(*log_slab_, 130);
  pmem::SlabAllocator::Options slab_options;
  slab_options.slot_bytes = kBigLeafBytes;
  slab_options.slots_per_chunk = 64;  // 256 KB chunks
  leaf_slab_ = pmem::SlabAllocator::Create(rt_.pool(), slab_options);
  auto* head = static_cast<BigLeaf*>(leaf_slab_->Allocate(0));
  assert(head != nullptr);
  head->count = 0;
  {
    // Formatting persist of the empty head leaf (see LeafTree's constructor).
    pmsim::PmCheckExpect format_expect(pmsim::PmCheckClass::kRedundantFlush);
    pmsim::Persist(head, 64);
  }
  base_index_.Insert(0, head);
}

DpTree::~DpTree() = default;

void DpTree::Upsert(uint64_t key, uint64_t value) {
  assert(key != 0);
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  bool need_merge = false;
  {
    sync::SharedLockGuard<sync::SharedMutex> gate(mu_);
    // Crash consistency: log first (sequential per-thread PM append), then
    // buffer in DRAM.
    uint64_t ts = rt_.ordo().Now();
    bool logged = wals_->Append(ctx->worker_id(), /*epoch=*/0, key, value, ts);
    assert(logged && "log slab exhausted");
    (void)logged;
    {
      sync::LockGuard<sync::SharedMutex> guard(buffer_mu_);
      buffer_[key] = value;
      need_merge =
          buffer_.size() >= options_.min_buffer_entries &&
          buffer_.size() * 100 >
              base_entries_.load(std::memory_order_relaxed) *
                  static_cast<uint64_t>(options_.merge_threshold_pct);
    }
  }
  if (need_merge) {
    sync::LockGuard<sync::SharedMutex> gate(mu_);
    bool still_needed;
    {
      sync::SharedLockGuard<sync::SharedMutex> guard(buffer_mu_);
      still_needed =
          buffer_.size() >= options_.min_buffer_entries &&
          buffer_.size() * 100 >
              base_entries_.load(std::memory_order_relaxed) *
                  static_cast<uint64_t>(options_.merge_threshold_pct);
    }
    if (still_needed) {
      MergeLocked();
    }
  }
}

void DpTree::RewriteLeaf(uint64_t sep, BigLeaf* leaf,
                         const std::vector<kvindex::KeyValue>& changes) {
  // Copy-on-write: read the old leaf, apply the sorted changes, write a
  // fresh 4 KB leaf (or two on overflow) sequentially, swap the index entry.
  pmsim::ReadPm(leaf, kBigLeafBytes);
  std::vector<kvindex::KeyValue> merged;
  merged.reserve(leaf->count + changes.size());
  size_t li = 0;
  size_t ci = 0;
  while (li < leaf->count || ci < changes.size()) {
    bool take_change;
    if (ci >= changes.size()) {
      take_change = false;
    } else if (li >= leaf->count) {
      take_change = true;
    } else if (changes[ci].key == leaf->kvs[li].key) {
      li++;  // change shadows old version
      take_change = true;
    } else {
      take_change = changes[ci].key < leaf->kvs[li].key;
    }
    if (take_change) {
      if (changes[ci].value != kDeleteMarker) {
        merged.push_back(changes[ci]);
      }
      ci++;
    } else {
      merged.push_back(leaf->kvs[li++]);
    }
  }

  // Write out as one fresh leaf, splitting into further pieces on overflow.
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  size_t written = 0;
  bool first_piece = true;
  do {
    size_t n = std::min(kBigLeafCap, merged.size() - written);
    auto* fresh = static_cast<BigLeaf*>(leaf_slab_->Allocate(ctx->socket()));
    assert(fresh != nullptr && "PM exhausted");
    fresh->count = n;
    std::memcpy(fresh->kvs, merged.data() + written, n * sizeof(kvindex::KeyValue));
    // Copy-on-write rewrite: a recycled slab slot may already hold much of
    // the merged content durably (same leaf rewritten across merges), which
    // pmcheck sees as clean-line flushes. The whole-leaf persist is the COW
    // design — the writer cannot cheaply diff against media.
    pmsim::PmCheckExpect cow_expect(pmsim::PmCheckClass::kRedundantFlush);
    pmsim::Persist(fresh, 64 + n * sizeof(kvindex::KeyValue));
    uint64_t piece_sep = first_piece ? sep : fresh->kvs[0].key;
    base_index_.Insert(piece_sep, fresh);
    first_piece = false;
    written += n;
  } while (written < merged.size());
  leaf_slab_->Free(leaf);
}

void DpTree::MergeLocked() {
  trace::TraceScope scope(trace::Component::kLeaf);
  // Foreground threads are stalled (mu_ held exclusive): DPTree's merge
  // pause. Changes are applied leaf-by-leaf in key order with COW rewrites.
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  {
    sync::LockGuard<sync::SharedMutex> guard(buffer_mu_);
    entries.assign(buffer_.begin(), buffer_.end());
    buffer_.clear();
  }
  size_t i = 0;
  while (i < entries.size()) {
    uint64_t key = entries[i].first;
    uint64_t sep = 0;
    BigLeaf* leaf = nullptr;
    bool found = base_index_.RouteFloorEntry(key, &sep, &leaf);
    assert(found);
    (void)found;
    // Upper bound of this leaf's range = next separator.
    uint64_t next_sep = 0;
    BigLeaf* next_leaf = nullptr;
    bool have_next = base_index_.NextEntry(key, &next_sep, &next_leaf);
    std::vector<kvindex::KeyValue> changes;
    while (i < entries.size() && (!have_next || entries[i].first < next_sep)) {
      changes.push_back({entries[i].first, entries[i].second});
      if (entries[i].second != kDeleteMarker) {
        base_entries_.fetch_add(1, std::memory_order_relaxed);
      }
      i++;
    }
    RewriteLeaf(sep, leaf, changes);
  }
  wals_->ReleaseEpoch(0);
  merges_.fetch_add(1, std::memory_order_relaxed);
}

bool DpTree::BaseLookup(uint64_t key, uint64_t* value_out) const {
  bool found = false;
  BigLeaf* leaf = base_index_.RouteFloor(key, &found);
  if (!found) {
    return false;
  }
  // Binary search in a 4 KB leaf: the probes touch ~log16(252) distinct
  // XPLines; charge the header plus the probe positions.
  pmsim::ReadPm(leaf, 64);
  const kvindex::KeyValue* begin = leaf->kvs;
  const kvindex::KeyValue* end = leaf->kvs + leaf->count;
  const kvindex::KeyValue* it = std::lower_bound(
      begin, end, key, [](const kvindex::KeyValue& e, uint64_t k) { return e.key < k; });
  if (it != end) {
    pmsim::ReadPm(it, sizeof(kvindex::KeyValue));
  }
  if (it == end || it->key != key) {
    return false;
  }
  *value_out = it->value;
  return true;
}

bool DpTree::Lookup(uint64_t key, uint64_t* value_out) {
  sync::SharedLockGuard<sync::SharedMutex> gate(mu_);
  {
    // The extra read cost DPTree pays: probing the big global buffer.
    sync::SharedLockGuard<sync::SharedMutex> guard(buffer_mu_);
    auto it = buffer_.find(key);
    pmsim::AdvanceCpu(24 * rt_.device().config().cost.dram_access_ns);
    if (it != buffer_.end()) {
      if (it->second == kDeleteMarker) {
        return false;
      }
      *value_out = it->second;
      return true;
    }
  }
  return BaseLookup(key, value_out);
}

bool DpTree::Remove(uint64_t key) {
  Upsert(key, kDeleteMarker);
  return true;
}

size_t DpTree::Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) {
  sync::SharedLockGuard<sync::SharedMutex> gate(mu_);
  // Base range: walk big leaves via the DRAM index.
  std::vector<kvindex::KeyValue> base_entries;
  base_entries.reserve(count + 64);
  uint64_t cursor = start_key;
  bool found = false;
  BigLeaf* leaf = base_index_.RouteFloor(cursor, &found);
  while (found && leaf != nullptr && base_entries.size() < count + 64) {
    pmsim::ReadPm(leaf, 64 + leaf->count * sizeof(kvindex::KeyValue));
    for (size_t i = 0; i < leaf->count && base_entries.size() < count + 64; i++) {
      if (leaf->kvs[i].key >= start_key) {
        base_entries.push_back(leaf->kvs[i]);
      }
    }
    uint64_t next_sep = 0;
    BigLeaf* next_leaf = nullptr;
    if (!base_index_.NextEntry(cursor, &next_sep, &next_leaf)) {
      break;
    }
    cursor = next_sep;
    leaf = next_leaf;
  }
  // Merge with the buffered range.
  sync::SharedLockGuard<sync::SharedMutex> guard(buffer_mu_);
  auto it = buffer_.lower_bound(start_key);
  size_t produced = 0;
  size_t bi = 0;
  while (produced < count && (bi < base_entries.size() || it != buffer_.end())) {
    bool take_buffer;
    if (it == buffer_.end()) {
      take_buffer = false;
    } else if (bi >= base_entries.size()) {
      take_buffer = true;
    } else if (it->first == base_entries[bi].key) {
      bi++;
      take_buffer = true;
    } else {
      take_buffer = it->first < base_entries[bi].key;
    }
    if (take_buffer) {
      if (it->second != kDeleteMarker) {
        out[produced++] = {it->first, it->second};
      }
      ++it;
    } else {
      out[produced++] = base_entries[bi++];
    }
    pmsim::AdvanceCpu(4 * rt_.device().config().cost.dram_access_ns);
  }
  return produced;
}

kvindex::MemoryFootprint DpTree::Footprint() const {
  kvindex::MemoryFootprint footprint;
  footprint.pm_bytes = rt_.pool().AllocatedBytes();
  footprint.dram_bytes = base_index_.MemoryBytes();
  sync::SharedLockGuard<sync::SharedMutex> guard(buffer_mu_);
  // std::map node overhead: ~48 B bookkeeping + 16 B payload per entry.
  footprint.dram_bytes += buffer_.size() * 64;
  return footprint;
}

void DpTree::FlushAll() {
  sync::LockGuard<sync::SharedMutex> gate(mu_);
  MergeLocked();
}

}  // namespace cclbt::baselines
