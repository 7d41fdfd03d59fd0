#include "src/baselines/lsmstore.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/trace/trace.h"

namespace cclbt::baselines {

namespace {
constexpr uint64_t kTombstone = 0;
}

LsmStore::LsmStore(kvindex::Runtime& runtime, const Options& options)
    : rt_(runtime), options_(options) {
  levels_.resize(static_cast<size_t>(options_.max_levels));
}

LsmStore::~LsmStore() = default;

LsmStore::Run LsmStore::WriteRun(const std::vector<kvindex::KeyValue>& entries) {
  // Memtable flushes and compactions write the sorted runs: the store's
  // data layer.
  trace::TraceScope scope(trace::Component::kLeaf);
  size_t bytes = entries.size() * sizeof(kvindex::KeyValue);
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  auto* mem = static_cast<kvindex::KeyValue*>(rt_.pool().AllocateRaw(bytes, ctx->socket()));
  assert(mem != nullptr && "PM exhausted");
  std::memcpy(mem, entries.data(), bytes);
  pmsim::Persist(mem, bytes);  // big sequential write: combines well, but lots of it
  pm_run_bytes_ += bytes;
  return Run{mem, entries.size(), entries.front().key, entries.back().key};
}

void LsmStore::Upsert(uint64_t key, uint64_t value) {
  assert(key != 0);
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  // The WAL append is the upsert's own PM write; a memtable flush below
  // opens WriteRun's inner `leaf` scope.
  trace::TraceScope scope(trace::Component::kWal);
  sync::LockGuard<sync::SharedMutex> guard(mu_);
  // WAL append (sequential), then memtable insert.
  if (wal_remaining_ < 24) {
    wal_cursor_ = static_cast<std::byte*>(rt_.pool().AllocateRaw(1 << 20, ctx->socket()));
    assert(wal_cursor_ != nullptr && "PM exhausted");
    wal_remaining_ = 1 << 20;
  }
  auto* record = reinterpret_cast<uint64_t*>(wal_cursor_);
  record[0] = key;
  record[1] = value;
  record[2] = 1;
  pmsim::Persist(record, 24);
  wal_cursor_ += 24;
  wal_remaining_ -= 24;

  memtable_[key] = value;
  pmsim::AdvanceCpu(16 * rt_.device().config().cost.dram_access_ns);
  if (memtable_.size() >= options_.memtable_entries) {
    FlushMemtableLocked();
    MaybeCompactLocked();
  }
}

void LsmStore::FlushMemtableLocked() {
  if (memtable_.empty()) {
    return;
  }
  std::vector<kvindex::KeyValue> entries;
  entries.reserve(memtable_.size());
  for (const auto& [key, value] : memtable_) {
    entries.push_back({key, value});
  }
  levels_[0].push_back(WriteRun(entries));
  memtable_.clear();
}

void LsmStore::MaybeCompactLocked() {
  for (int level = 0; level + 1 < options_.max_levels; level++) {
    size_t trigger = level == 0 ? static_cast<size_t>(options_.l0_runs_trigger)
                                : 1;  // deeper levels hold a single run
    if (level == 0 ? levels_[0].size() >= trigger : levels_[static_cast<size_t>(level)].size() > trigger) {
      CompactLocked(level);
    }
  }
}

void LsmStore::CompactLocked(int level) {
  auto& upper = levels_[static_cast<size_t>(level)];
  auto& lower = levels_[static_cast<size_t>(level) + 1];
  // Read every input run (sequential PM reads), sort-merge newest-first so
  // the freshest version of each key wins, and rewrite as one run below.
  std::map<uint64_t, uint64_t> merged;
  // Lower level first (oldest data): overwritten by upper-level versions.
  for (const Run& run : lower) {
    pmsim::ReadPm(run.entries, run.count * sizeof(kvindex::KeyValue));
    for (size_t i = 0; i < run.count; i++) {
      merged[run.entries[i].key] = run.entries[i].value;
    }
  }
  // Upper runs oldest-to-newest (push order): later runs overwrite.
  for (const Run& run : upper) {
    pmsim::ReadPm(run.entries, run.count * sizeof(kvindex::KeyValue));
    for (size_t i = 0; i < run.count; i++) {
      merged[run.entries[i].key] = run.entries[i].value;
    }
  }
  bool is_last = level + 2 >= options_.max_levels;
  std::vector<kvindex::KeyValue> entries;
  entries.reserve(merged.size());
  for (const auto& [key, value] : merged) {
    if (is_last && value == kTombstone) {
      continue;  // tombstones die at the bottom level
    }
    entries.push_back({key, value});
  }
  upper.clear();
  lower.clear();
  if (!entries.empty()) {
    lower.push_back(WriteRun(entries));
  }
  pmsim::AdvanceCpu(entries.size() * 8 * rt_.device().config().cost.dram_access_ns);
  compactions_++;
}

bool LsmStore::Lookup(uint64_t key, uint64_t* value_out) {
  sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
  pmsim::AdvanceCpu(16 * rt_.device().config().cost.dram_access_ns);
  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    if (it->second == kTombstone) {
      return false;
    }
    *value_out = it->second;
    return true;
  }
  // Probe levels newest to oldest; within L0, newest run first.
  for (size_t level = 0; level < levels_.size(); level++) {
    const auto& runs = levels_[level];
    for (auto run_it = runs.rbegin(); run_it != runs.rend(); ++run_it) {
      const Run& run = *run_it;
      if (key < run.min_key || key > run.max_key) {
        continue;
      }
      // Binary search: ~log2(n) probes touching distinct XPLines; charge a
      // few block reads like a real SST (index block + data block).
      pmsim::ReadPm(run.entries, 256);
      const kvindex::KeyValue* begin = run.entries;
      const kvindex::KeyValue* end = run.entries + run.count;
      const kvindex::KeyValue* found =
          std::lower_bound(begin, end, key,
                           [](const kvindex::KeyValue& e, uint64_t k) { return e.key < k; });
      pmsim::ReadPm(found == end ? begin : found, sizeof(kvindex::KeyValue));
      if (found != end && found->key == key) {
        if (found->value == kTombstone) {
          return false;
        }
        *value_out = found->value;
        return true;
      }
    }
  }
  return false;
}

bool LsmStore::Remove(uint64_t key) {
  Upsert(key, kTombstone);
  return true;
}

size_t LsmStore::Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) {
  sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
  // Merge the memtable and every run: collect candidates per source, then
  // pick newest version per key — the multi-source seek+merge that makes LSM
  // scans slow.
  std::map<uint64_t, uint64_t> merged;  // key -> newest value (insertion order: oldest first)
  for (size_t level = levels_.size(); level-- > 0;) {
    for (const Run& run : levels_[level]) {
      const kvindex::KeyValue* begin = run.entries;
      const kvindex::KeyValue* end = run.entries + run.count;
      const kvindex::KeyValue* it =
          std::lower_bound(begin, end, start_key,
                           [](const kvindex::KeyValue& e, uint64_t k) { return e.key < k; });
      size_t taken = 0;
      while (it != end && taken < count + 16) {
        pmsim::ReadPm(it, sizeof(kvindex::KeyValue));
        merged[it->key] = it->value;
        ++it;
        taken++;
      }
    }
  }
  for (auto it = memtable_.lower_bound(start_key);
       it != memtable_.end() && merged.size() < 16 * count; ++it) {
    merged[it->first] = it->second;
  }
  size_t produced = 0;
  for (const auto& [key, value] : merged) {
    if (key < start_key || value == kTombstone) {
      continue;
    }
    out[produced++] = {key, value};
    if (produced >= count) {
      break;
    }
  }
  pmsim::AdvanceCpu(merged.size() * 8 * rt_.device().config().cost.dram_access_ns);
  return produced;
}

kvindex::MemoryFootprint LsmStore::Footprint() const {
  kvindex::MemoryFootprint footprint;
  sync::SharedLockGuard<sync::SharedMutex> guard(mu_);
  footprint.dram_bytes = memtable_.size() * 64;
  footprint.pm_bytes = rt_.pool().AllocatedBytes();
  return footprint;
}

void LsmStore::FlushAll() {
  sync::LockGuard<sync::SharedMutex> guard(mu_);
  FlushMemtableLocked();
  MaybeCompactLocked();
}

}  // namespace cclbt::baselines
