#include "src/core/wal.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/pmsim/lockcheck.h"
#include "src/pmsim/pmcheck.h"
#include "src/trace/trace.h"

namespace cclbt::core {

namespace {

// 8 entries fill 3 cache lines: a first entry a multiple of this past the
// header keeps every chunk on one entry grid and one line phase.
constexpr size_t kEntryGroupBytes = 8 * sizeof(LogEntry);

// Where a fresh chunk of `worker_id` puts its first entry (wal.h,
// "Placement"): past the header by the whole interleave units from the
// DIMM of the chunk's byte 64 to the worker's own DIMM of the chunk's
// socket, rounded down to whole entry groups, or up where rounding down
// would leave the worker's unit.
size_t EntryOffset(const pmsim::PmDevice& device, const std::byte* chunk, int worker_id) {
  const pmsim::DeviceConfig& config = device.config();
  const int dimms = config.dimms_per_socket;
  const int target = (worker_id / config.num_sockets) % dimms;
  const uintptr_t first = device.OffsetOf(chunk) + sizeof(LogChunkHeader);
  const int phase = device.DimmOf(first) % dimms;
  const size_t shift =
      static_cast<size_t>((target - phase + dimms) % dimms) * pmsim::kInterleaveBytes;
  size_t grid = shift / kEntryGroupBytes * kEntryGroupBytes;
  if ((first + grid) / pmsim::kInterleaveBytes != (first + shift) / pmsim::kInterleaveBytes) {
    grid += kEntryGroupBytes;
  }
  return sizeof(LogChunkHeader) + grid;
}

}  // namespace

uint8_t EntryChecksum(uint64_t key, uint64_t value) {
  uint64_t x = key * 0x9e3779b97f4a7c15ULL + value;
  x ^= x >> 32;
  x ^= x >> 16;
  x ^= x >> 8;
  return static_cast<uint8_t>(x);
}

uint64_t MakeTsWord(uint32_t generation, uint64_t timestamp, uint64_t key, uint64_t value) {
  auto tag = static_cast<uint8_t>(generation) ^ EntryChecksum(key, value);
  return (static_cast<uint64_t>(tag) << 56) | (timestamp & kTsMask);
}

bool EntryValid(const LogEntry& entry, uint32_t generation) {
  auto tag = static_cast<uint8_t>(entry.ts_word >> 56);
  auto expected = static_cast<uint8_t>(generation) ^ EntryChecksum(entry.key, entry.value);
  return tag == expected && entry.timestamp() != 0;
}

// WAL traffic attributes to kWal — unless the append/activate/release runs
// inside a GC round (TraceScope(kGc) active), in which case GC keeps the
// attribution: fig14's cost model charges GC-driven I-log appends and chunk
// recycling to the GC component, not to foreground logging.
static trace::Component WalComponent() {
  return trace::CurrentComponent() == trace::Component::kGc ? trace::Component::kGc
                                                            : trace::Component::kWal;
}

ThreadWal::~ThreadWal() = default;

bool ThreadWal::ActivateChunk(int epoch) {
  trace::TraceScope scope(WalComponent());
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  assert(ctx != nullptr);
  void* mem = log_->Allocate(ctx->socket());
  if (mem == nullptr) {
    return false;
  }
  auto* base = static_cast<std::byte*>(mem);
  auto* header = reinterpret_cast<LogChunkHeader*>(base);
  header->magic = kLogChunkMagic;
  header->generation++;
  header->state = kChunkActive;
  header->owner_worker = static_cast<uint32_t>(worker_id_);
  header->epoch = static_cast<uint32_t>(epoch);
  const size_t offset = EntryOffset(ctx->device(), base, worker_id_);
  header->entry_offset = static_cast<uint32_t>(offset);
  pmsim::Persist(header, sizeof(LogChunkHeader));
  if (chunks_[epoch].capacity() == 0) {
    chunks_[epoch].reserve(kChunkListReserve);
  }
  chunks_[epoch].push_back(base);
  active_[epoch] = ActiveChunk{base, offset, header->generation};
  return true;
}

bool ThreadWal::Append(int epoch, std::span<const LogEntry> entries) {
  trace::TraceScope scope(WalComponent());
  trace::Emit(trace::EventType::kWalAppend, static_cast<uint64_t>(epoch));
  for (size_t next = 0; next < entries.size();) {
    if (active_[epoch].base == nullptr ||
        active_[epoch].cursor + sizeof(LogEntry) > kWalChunkBytes) {
      if (!ActivateChunk(epoch)) {
        return false;
      }
    }
    ActiveChunk& active = active_[epoch];
    size_t n = std::min(entries.size() - next,
                        (kWalChunkBytes - active.cursor) / sizeof(LogEntry));
    auto* out = reinterpret_cast<LogEntry*>(active.base + active.cursor);
    for (size_t i = 0; i < n; i++) {
      const LogEntry& entry = entries[next + i];
      out[i] = {entry.key, entry.value,
                MakeTsWord(active.generation, entry.ts_word, entry.key, entry.value)};
    }
    {
      // Log appends write fresh bytes at a monotonically advancing cursor, so
      // a clean-line report here is always a content coincidence: a recycled
      // chunk can still hold a byte-identical entry from a prior generation
      // at this offset (e.g. repeated tombstones of one key at equal ordo
      // timestamps).
      pmsim::PmCheckExpect append_expect(pmsim::PmCheckClass::kRedundantFlush);
      pmsim::Persist(out, n * sizeof(LogEntry));
    }
    active.cursor += n * sizeof(LogEntry);
    appended_bytes_[epoch] += n * sizeof(LogEntry);
    next += n;
  }
  return true;
}

uint64_t ThreadWal::ReleaseEpoch(int epoch) {
  trace::TraceScope scope(WalComponent());
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  assert(ctx != nullptr);
  // The GC context writes the free marker into headers that foreground
  // workers wrote at activation. The epoch protocol synchronizes this (no
  // appends land in the old epoch once every bn latch has cycled after the
  // flip), but lockcheck cannot see epochs — only locks — so the second-party
  // header write would read as an unlocked write.
  pmsim::LockCheckExpect release_expect(pmsim::LockCheckClass::kUnlockedWrite);
  for (std::byte* base : chunks_[epoch]) {
    auto* header = reinterpret_cast<LogChunkHeader*>(base);
    header->state = kChunkFree;
    pmsim::Persist(&header->state, sizeof(header->state));
    log_->Free(base);
  }
  chunks_[epoch].clear();
  active_[epoch] = ActiveChunk{};
  uint64_t released = appended_bytes_[epoch];
  appended_bytes_[epoch] = 0;
  return released;
}

WalSet::WalSet(pmem::SlabAllocator& log, int max_workers) {
  wals_.reserve(static_cast<size_t>(max_workers));
  for (int i = 0; i < max_workers; i++) {
    wals_.push_back(std::make_unique<ThreadWal>(log, i));
  }
}

bool WalSet::Append(int worker_id, int epoch, std::span<const LogEntry> entries) {
  assert(worker_id >= 0 && static_cast<size_t>(worker_id) < wals_.size());
  ThreadWal& wal = *wals_[static_cast<size_t>(worker_id)];
  const uint64_t before = wal.appended_bytes(epoch);
  const bool appended = wal.Append(epoch, entries);
  const uint64_t added = wal.appended_bytes(epoch) - before;
  uint64_t live = live_bytes_.fetch_add(added, std::memory_order_relaxed) + added;
  uint64_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (live > peak &&
         !peak_bytes_.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return appended;
}

void WalSet::ReleaseEpoch(int epoch) {
  uint64_t released = 0;
  for (auto& wal : wals_) {
    released += wal->ReleaseEpoch(epoch);
  }
  live_bytes_.fetch_sub(released, std::memory_order_relaxed);
}

bool WalSet::ScanChunk(const void* chunk, const std::function<void(const LogEntry&)>& fn) {
  // Recovery reads every worker's chunks with no lock; the pre-crash owners
  // are gone and replay order is fixed by timestamps, not locks. Without the
  // scope these reads would demote still-live lines out of their
  // single-writer exemption and later owner writes would intersect to empty.
  pmsim::LockCheckExpect scan_expect(pmsim::LockCheckClass::kLocksetEmpty);
  const auto* header = static_cast<const LogChunkHeader*>(chunk);
  const size_t offset = header->entry_offset;
  if (header->magic != kLogChunkMagic || header->state != kChunkActive ||
      offset < sizeof(LogChunkHeader) || offset > kWalChunkBytes - sizeof(LogEntry) ||
      (offset - sizeof(LogChunkHeader)) % sizeof(LogEntry) != 0) {
    return false;
  }
  pmsim::ReadPm(header, sizeof(LogChunkHeader));
  const auto* entries =
      reinterpret_cast<const LogEntry*>(static_cast<const std::byte*>(chunk) + offset);
  const size_t capacity = (kWalChunkBytes - offset) / sizeof(LogEntry);
  size_t consumed = 0;  // length of the chunk's valid prefix
  for (; consumed < capacity && EntryValid(entries[consumed], header->generation); consumed++) {
    fn(entries[consumed]);
  }
  // Replay reads are sequential; charge one pass over the consumed prefix
  // and the entry that ended it, if the chunk has one.
  pmsim::ReadPm(entries, std::min(consumed + 1, capacity) * sizeof(LogEntry));
  return true;
}

void WalSet::ScanAll(const pmem::SlabAllocator& log,
                     const std::function<void(const LogEntry&)>& fn) {
  log.ForEachSlot([&fn](void* chunk) { ScanChunk(chunk, fn); });
}

LocalityAwareGcRound::LocalityAwareGcRound(
    WalSet& wals, int worker_id, std::atomic<uint32_t>& epoch,
    const std::function<std::vector<BufferNode*>()>& nodes, std::function<uint64_t()> timestamp)
    : wals_(&wals),
      worker_id_(worker_id),
      epoch_(&epoch),
      old_epoch_(epoch.load(std::memory_order_acquire)),
      new_epoch_(old_epoch_ ^ 1u),
      timestamp_(std::move(timestamp)) {
  // Flip the global epoch: appends from now on go to the I-log (§3.4). The
  // nodes are collected after the flip.
  epoch.store(new_epoch_, std::memory_order_release);
  nodes_ = nodes();
}

// Appends the first n staged copies. On failure no staged copy is known to
// be durable, and each one's only durable copy is its B-log entry: give
// every staged slot its old bit back (a slot rewritten since is merely
// copied again) and flip the epoch back, so the next round repeats this
// flip and the B-log outlives every copy.
bool LocalityAwareGcRound::Append(size_t n) {
  if (wals_->Append(worker_id_, static_cast<int>(new_epoch_), {staged_, n})) {
    count_ -= n;
    std::copy_n(staged_ + n, count_, staged_);
    std::copy_n(sources_ + n, count_, sources_);
    return true;
  }
  for (size_t i = 0; i < count_; i++) {
    sources_[i].node->Lock();
    sources_[i].node->SetEpochBit(sources_[i].slot, old_epoch_);
    sources_[i].node->Unlock();
  }
  epoch_->store(old_epoch_, std::memory_order_release);
  return false;
}

LocalityAwareGcRound::Progress LocalityAwareGcRound::RunSpan() {
  trace::TraceScope scope(trace::Component::kGc);
  // Copy every still-buffered KV tagged with the old epoch into the I-log —
  // sequential appends, never a random leaf write.
  while (cursor_ < nodes_.size() && count_ < kGcSpanEntries) {
    BufferNode* bn = nodes_[cursor_++];
    assert(bn->nbatch() <= 8);
    bn->Lock();
    if (!bn->dead()) {
      BufferSlot* slots = bn->slots();
      for (int i = 0; i < bn->pos(); i++) {
        if (bn->EpochBit(i) == old_epoch_) {
          staged_[count_] = {slots[i].key.load(std::memory_order_relaxed),
                             slots[i].value.load(std::memory_order_relaxed), timestamp_()};
          sources_[count_++] = {bn, i};
          bn->SetEpochBit(i, new_epoch_);
        }
      }
    }
    bn->Unlock();
  }
  if (count_ >= kGcSpanEntries) {
    if (!Append(kGcSpanEntries)) {
      return Progress::kCutShort;
    }
    if (cursor_ < nodes_.size() || count_ > 0) {
      return Progress::kMore;
    }
  }
  if (count_ > 0 && !Append(count_)) {
    return Progress::kCutShort;
  }
  // Every buffered-but-unflushed KV now lives in the I-log (either copied
  // above or logged there by foreground threads after the flip): the old
  // B-logs are dead and all their chunks return to the free list.
  wals_->ReleaseEpoch(static_cast<int>(old_epoch_));
  return Progress::kDone;
}

bool LocalityAwareGcRound::Finish() {
  Progress progress = Progress::kMore;
  while (progress == Progress::kMore) {
    progress = RunSpan();
  }
  return progress == Progress::kDone;
}

}  // namespace cclbt::core
