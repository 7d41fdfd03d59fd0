// Per-thread write-ahead logs (paper §3.3).
//
// Each worker owns a private WAL for scalability; a WAL is a chain of
// 256 KiB log chunks drawn from the index's log slab, a pmem::SlabAllocator
// whose chunks hold one slot of kWalChunkBytes (kLogSlabOptions): a freed
// chunk is recycled from a free list per socket before a new one is carved.
// A log entry is 24 B: a 16 B KV plus an 8 B timestamp word. Because entries
// are appended sequentially, ~10.7 entries share an XPLine and the XPBuffer
// merges them into one media write — this is the "additional
// XBI-amplification caused by logging" term (24/256) of §3.5. A chunk is
// small because a worker holds up to two of them at once, one per epoch:
// during a GC round 48 workers hold 96, which must fit one socket's region
// next to the tree.
//
// A CclIndex owns one WalSet, and its Replay scans the chunks (ScanChunk).
//
// Epochs: every WAL keeps two logs, selected by the index's global epoch bit.
// Entries written before a GC flip land in the B-log, entries written during
// GC land in the I-log (§3.4); the GC frees all B-log chunks at the end of a
// round.
//
// Appends take a span of entries and commit it with one fence: a foreground
// upsert appends one entry, a GC round appends its I-log copy one 4 KiB span
// at a time (LocalityAwareGcRound).
//
// Placement: a chunk's first entry sits on its owner's own DIMM of the
// chunk's socket, DIMM (worker_id / num_sockets) % dimms_per_socket, which
// balances fill-first and round-robin worker placement alike. Workers
// appending in lockstep (the driver steps one op per worker per round) then
// keep their active log XPLines spread evenly over the socket's DIMMs. Were
// every chunk to start at the same interleave phase, each GC flip would
// restart all workers at the head of fresh chunks on one DIMM, whose
// XPBuffer would evict their half-filled XPLines, each with a
// read-modify-write, instead of merging ~10.7 entries per media write. The
// header records the chosen entry_offset: 64 B of header plus the whole
// interleave units from the DIMM of the chunk's byte 64 to the owner's,
// rounded to whole groups of 8 entries (3 cache lines) without leaving the
// owner's unit. The first entry thus keeps, to within 192 B, the unit phase
// a chunk's first entry had at offset 64, every append flushes the lines it
// would flush there, and less than dimms_per_socket x 4 KiB of a chunk stays
// unused: at most 12 KiB, 4.7% of a chunk, on the default 4 DIMMs per
// socket.
//
// Entry validity without zeroing recycled chunks: the chunk header carries a
// generation counter bumped on every (re)activation, and each entry's
// timestamp word embeds an 8-bit tag = generation ^ checksum(kv). Replay
// scans a chunk's entries in order from entry_offset and stops at the first
// tag mismatch, so stale entries from a previous use of the chunk — or an
// entry torn by a crash — are not replayed. Every generation's entries lie
// on one grid, 24 B slots from the header on, whatever its entry_offset, so
// a stale slot holds a whole entry of an older generation, never a window
// across two entries, and fails the tag check like at a fixed offset.
#ifndef SRC_CORE_WAL_H_
#define SRC_CORE_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/core/buffer_node.h"
#include "src/pmem/slab_allocator.h"
#include "src/pmsim/device.h"

namespace cclbt::core {

inline constexpr uint64_t kLogChunkMagic = 0x10C41B7ULL;
// A WAL log chunk: the slot of a log slab, whose chunks hold one slot.
inline constexpr size_t kWalChunkBytes = 256 * 1024;
// The log slab of CCL-BTree, CCL-Hash and DPTree: at most 1 GiB of log.
inline constexpr pmem::SlabAllocator::Options kLogSlabOptions{
    .slot_bytes = kWalChunkBytes, .slots_per_chunk = 1, .max_chunks = 4096};
inline constexpr uint64_t kTsMask = (1ULL << 56) - 1;

struct LogEntry {
  uint64_t key;
  uint64_t value;
  uint64_t ts_word;  // [tag:8][timestamp:56]

  uint64_t timestamp() const { return ts_word & kTsMask; }
};
static_assert(sizeof(LogEntry) == 24);

struct LogChunkHeader {
  uint64_t magic;
  uint32_t generation;
  uint32_t state;  // 0 = free, 1 = active
  uint32_t owner_worker;
  uint32_t epoch;
  uint32_t entry_offset;  // byte offset of the first entry in the chunk
  uint8_t padding[36];
};
static_assert(sizeof(LogChunkHeader) == 64);

inline constexpr uint32_t kChunkFree = 0;
inline constexpr uint32_t kChunkActive = 1;

// 8-bit content checksum folded into the tag so a torn entry (crash between
// the KV lines and the timestamp line persisting) fails validation.
uint8_t EntryChecksum(uint64_t key, uint64_t value);
uint64_t MakeTsWord(uint32_t generation, uint64_t timestamp, uint64_t key, uint64_t value);
bool EntryValid(const LogEntry& entry, uint32_t generation);

// One worker's WAL. Not thread-safe: exactly one thread appends (that is the
// point of per-thread logs).
class ThreadWal {
 public:
  ThreadWal(pmem::SlabAllocator& log, int worker_id) : log_(&log), worker_id_(worker_id) {}
  ~ThreadWal();

  ThreadWal(const ThreadWal&) = delete;
  ThreadWal& operator=(const ThreadWal&) = delete;

  // Appends `entries` to the `epoch` log at the cursor: writes them, flushes
  // each 64 B line they cover once, and fences once. Each entry's ts_word is
  // a bare timestamp, which Append tags with the generation of the chunk the
  // entry lands in. A span that reaches the end of the active chunk fences
  // what it wrote there and goes on in a fresh chunk. Returns false when the
  // log slab is exhausted; the entries appended before that are durable.
  bool Append(int epoch, std::span<const LogEntry> entries);
  bool Append(int epoch, uint64_t key, uint64_t value, uint64_t timestamp) {
    const LogEntry entry{key, value, timestamp};
    return Append(epoch, {&entry, 1});
  }

  // Releases every chunk of the `epoch` log back to the log slab (persisting
  // the free markers). Returns the number of payload bytes released.
  uint64_t ReleaseEpoch(int epoch);

  uint64_t appended_bytes(int epoch) const { return appended_bytes_[epoch]; }

 private:
  // A chunk list is sized at its first activation, so a later activation on
  // the hot append path never reallocates (steady-state upserts are asserted
  // allocation-free by bench_pmsim_hotpath) and a WAL that never logs holds
  // none: 256 MB of log per epoch per worker, far beyond any workload here;
  // past that push_back grows as usual.
  static constexpr size_t kChunkListReserve = (256 << 20) / kWalChunkBytes;

  struct ActiveChunk {
    std::byte* base = nullptr;
    size_t cursor = 0;  // next append offset (entry_offset at activation)
    uint32_t generation = 0;
  };

  bool ActivateChunk(int epoch);

  pmem::SlabAllocator* log_;
  int worker_id_;
  std::vector<std::byte*> chunks_[2];
  ActiveChunk active_[2];
  uint64_t appended_bytes_[2] = {0, 0};
};

// The set of per-worker WALs plus global byte accounting for the GC trigger.
class WalSet {
 public:
  WalSet(pmem::SlabAllocator& log, int max_workers);

  // Appends on behalf of `worker_id`; updates the global log-size counter.
  bool Append(int worker_id, int epoch, std::span<const LogEntry> entries);
  bool Append(int worker_id, int epoch, uint64_t key, uint64_t value, uint64_t timestamp) {
    const LogEntry entry{key, value, timestamp};
    return Append(worker_id, epoch, {&entry, 1});
  }

  // Frees the `epoch` log of every worker (end of a GC round).
  void ReleaseEpoch(int epoch);

  uint64_t live_bytes() const { return live_bytes_.load(std::memory_order_relaxed); }
  // High-water mark of live log bytes (paper Table 2's "peak log size").
  uint64_t peak_bytes() const { return peak_bytes_.load(std::memory_order_relaxed); }

  // Recovery: invokes `fn` for each valid entry of `chunk` if it is an
  // active log chunk, and returns whether it is. ScanAll does so for every
  // chunk of `log`. A header is image input: one whose entry_offset is off
  // the entry grid or leaves no room for an entry is no log chunk, like one
  // with a bad magic, so a scan never reads outside its chunk.
  static bool ScanChunk(const void* chunk, const std::function<void(const LogEntry&)>& fn);
  static void ScanAll(const pmem::SlabAllocator& log,
                      const std::function<void(const LogEntry&)>& fn);

 private:
  std::vector<std::unique_ptr<ThreadWal>> wals_;
  std::atomic<uint64_t> live_bytes_{0};
  std::atomic<uint64_t> peak_bytes_{0};
};

// Entries of one I-log copy span: 4 KiB of log, the DIMM interleave unit.
inline constexpr size_t kGcSpanEntries = pmsim::kInterleaveBytes / sizeof(LogEntry);

// One locality-aware GC round of CCL-BTree and CCL-Hash (paper §3.4), run
// one span of its I-log copy at a time, so foreground upserts go on between
// spans (DESIGN.md §10). Each copy is appended to `worker_id`'s WAL.
//
// The constructor begins the round: it flips `epoch`, then calls nodes() for
// the buffer nodes to visit. The snapshot stays valid across spans: buffer
// nodes are freed only with their index, dead ones are skipped, and a node
// published after the flip (a split's right half) buffers only KVs logged
// in the new epoch, because the flush that split the leaf emptied the left
// buffer. Each RunSpan() visits nodes from the cursor; under each live
// node's lock it stamps every KV buffered in the old epoch with timestamp(),
// flips its epoch bit and stages it, and once one span of kGcSpanEntries
// copies is staged it appends them with one fence. The copy gets a fresh
// timestamp, which is safe: the slot holds the newest value for its key, and
// every later update, flush or copy receives a still-larger one. The last
// span appends the rest and frees the old epoch's logs. Every copy is
// durable before that release, the only point that needs it: until then
// each copied KV is still in that B-log.
//
// If the log slab runs out, the round is cut short before the release:
// `epoch` flips back and the KVs not yet durably copied get their old bit
// back, so the next round copies them, into the same log as the copies that
// did land and the KVs that foreground upserts logged there between spans.
class LocalityAwareGcRound {
 public:
  enum class Progress { kMore, kDone, kCutShort };

  LocalityAwareGcRound(WalSet& wals, int worker_id, std::atomic<uint32_t>& epoch,
                       const std::function<std::vector<BufferNode*>()>& nodes,
                       std::function<uint64_t()> timestamp);

  LocalityAwareGcRound(const LocalityAwareGcRound&) = delete;
  LocalityAwareGcRound& operator=(const LocalityAwareGcRound&) = delete;

  // Appends one span, or the last one and the release. Only while kMore.
  Progress RunSpan();
  // Runs the remaining spans; returns whether the round released the B-log.
  bool Finish();

 private:
  // Copies staged together with the slots they came from. A node's KVs are
  // staged together, so up to a node's slots beyond one span wait for the
  // next.
  static constexpr size_t kCapacity = kGcSpanEntries + 8;
  struct Source {
    BufferNode* node;
    int slot;
  };

  bool Append(size_t n);

  WalSet* wals_;
  int worker_id_;
  std::atomic<uint32_t>* epoch_;
  uint32_t old_epoch_;
  uint32_t new_epoch_;
  std::function<uint64_t()> timestamp_;
  std::vector<BufferNode*> nodes_;
  size_t cursor_ = 0;  // the next node to visit
  size_t count_ = 0;   // copies staged
  LogEntry staged_[kCapacity];
  Source sources_[kCapacity];
};

}  // namespace cclbt::core

#endif  // SRC_CORE_WAL_H_
