// Unit tests for the write-ahead log layer: entry tagging/checksums, chunk
// recycling across generations, epoch accounting, and torn-entry rejection.
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/wal.h"
#include "src/kvindex/runtime.h"
#include "src/pmem/pool.h"

namespace cclbt::core {
namespace {

struct WalFixture : public ::testing::Test {
  void SetUp() override {
    pmsim::DeviceConfig config;
    config.pool_bytes = 256 << 20;
    config.backend = backend;
    device = std::make_unique<pmsim::PmDevice>(config);
    ctx = std::make_unique<pmsim::ThreadContext>(*device, 0, 0);
    pool = pmem::PmPool::Create(*device);
    log = pmem::SlabAllocator::Create(*pool, kLogSlabOptions);
  }

  pmsim::MediaBackend backend = pmsim::MediaBackend::kAuto;
  std::unique_ptr<pmsim::PmDevice> device;
  std::unique_ptr<pmsim::ThreadContext> ctx;
  std::unique_ptr<pmem::PmPool> pool;
  std::unique_ptr<pmem::SlabAllocator> log;
};

uint64_t Chunks(const pmem::SlabAllocator& log) {
  return log.total_chunk_bytes() / kWalChunkBytes;
}

// The headers of every chunk of `log`, in the order the slab carved them.
std::vector<LogChunkHeader*> Headers(const pmem::SlabAllocator& log) {
  std::vector<LogChunkHeader*> headers;
  log.ForEachSlot(
      [&headers](void* chunk) { headers.push_back(static_cast<LogChunkHeader*>(chunk)); });
  return headers;
}

// Entries a chunk holds from its first entry on.
uint64_t Capacity(const LogChunkHeader& header) {
  return (kWalChunkBytes - header.entry_offset) / sizeof(LogEntry);
}

TEST_F(WalFixture, ChecksumDetectsValueCorruption) {
  uint64_t word = MakeTsWord(/*generation=*/3, /*timestamp=*/777, /*key=*/1, /*value=*/2);
  LogEntry good{1, 2, word};
  EXPECT_TRUE(EntryValid(good, 3));
  LogEntry bad_value{1, 99, word};
  EXPECT_FALSE(EntryValid(bad_value, 3));
  LogEntry bad_key{7, 2, word};
  EXPECT_FALSE(EntryValid(bad_key, 3));
  EXPECT_FALSE(EntryValid(good, 4));  // wrong generation
}

TEST_F(WalFixture, ZeroTimestampIsInvalid) {
  uint64_t word = MakeTsWord(1, 0, 5, 6);
  EXPECT_FALSE(EntryValid(LogEntry{5, 6, word}, 1));
}

TEST_F(WalFixture, AppendedEntriesScanBackInOrder) {
  ThreadWal wal(*log, 0);
  for (uint64_t i = 1; i <= 1000; i++) {
    ASSERT_TRUE(wal.Append(/*epoch=*/0, i, i * 2, /*timestamp=*/i));
  }
  std::vector<LogEntry> seen;
  WalSet::ScanAll(*log, [&seen](const LogEntry& entry) { seen.push_back(entry); });
  ASSERT_EQ(seen.size(), 1000u);
  for (uint64_t i = 0; i < seen.size(); i++) {
    EXPECT_EQ(seen[i].key, i + 1);
    EXPECT_EQ(seen[i].value, (i + 1) * 2);
    EXPECT_EQ(seen[i].timestamp(), i + 1);
  }
}

TEST_F(WalFixture, ReleaseFreesChunksAndStopsScan) {
  ThreadWal wal(*log, 0);
  for (uint64_t i = 1; i <= 100; i++) {
    wal.Append(0, i, i, i);
  }
  EXPECT_EQ(wal.ReleaseEpoch(0), 100 * sizeof(LogEntry));
  int entries = 0;
  WalSet::ScanAll(*log, [&entries](const LogEntry&) { entries++; });
  EXPECT_EQ(entries, 0);  // freed chunks are not scanned
  EXPECT_EQ(Chunks(*log), 1u);
  EXPECT_EQ(log->allocated_slots(), 0u);
}

TEST_F(WalFixture, RecycledChunkRejectsStaleGenerationEntries) {
  ThreadWal wal(*log, 0);
  // Fill generation 1 with many entries, release, then write FEWER entries
  // in generation 2 into the same (recycled, dirty) chunk.
  for (uint64_t i = 1; i <= 500; i++) {
    wal.Append(0, i, i, i);
  }
  wal.ReleaseEpoch(0);
  for (uint64_t i = 1; i <= 10; i++) {
    wal.Append(0, 1000 + i, i, 5000 + i);
  }
  std::vector<LogEntry> seen;
  WalSet::ScanAll(*log, [&seen](const LogEntry& entry) { seen.push_back(entry); });
  // Only the 10 fresh entries are valid; the 490 stale ones behind them have
  // the old generation tag and terminate the prefix scan.
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen[0].key, 1001u);
}

// A chunk recycled by a worker of another DIMM starts its entries at another
// offset, on the same 24 B grid: the stale entries behind the fresh ones are
// whole entries of the old generation and end the scan.
TEST_F(WalFixture, ChunkRecycledAtAnotherOffsetRejectsStaleEntries) {
  ThreadWal first(*log, 0);
  for (uint64_t i = 1; i <= 2000; i++) {
    first.Append(0, i, i * 5, i);
  }
  const uint32_t old_offset = Headers(*log).at(0)->entry_offset;
  first.ReleaseEpoch(0);
  ThreadWal second(*log, 2);  // DIMM 1 of the socket; worker 0's is DIMM 0
  for (uint64_t i = 1; i <= 10; i++) {
    second.Append(0, 5000 + i, i, 9000 + i);
  }
  ASSERT_EQ(Chunks(*log), 1u);
  ASSERT_NE(Headers(*log).at(0)->entry_offset, old_offset);
  std::vector<LogEntry> seen;
  WalSet::ScanAll(*log, [&seen](const LogEntry& entry) { seen.push_back(entry); });
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen[0].key, 5001u);
  EXPECT_EQ(seen[9].key, 5010u);
}

TEST_F(WalFixture, EpochsAreIndependentChains) {
  ThreadWal wal(*log, 0);
  for (uint64_t i = 1; i <= 50; i++) {
    wal.Append(0, i, i, i);
    wal.Append(1, 100 + i, i, 100 + i);
  }
  EXPECT_EQ(wal.appended_bytes(0), 50 * sizeof(LogEntry));
  EXPECT_EQ(wal.appended_bytes(1), 50 * sizeof(LogEntry));
  wal.ReleaseEpoch(0);
  int survivors = 0;
  WalSet::ScanAll(*log, [&survivors](const LogEntry& entry) {
    EXPECT_GE(entry.key, 100u);
    survivors++;
  });
  EXPECT_EQ(survivors, 50);
}

TEST_F(WalFixture, WalSetTracksLiveAndPeakBytes) {
  WalSet wals(*log, 8);
  for (int w = 0; w < 4; w++) {
    for (uint64_t i = 1; i <= 100; i++) {
      ASSERT_TRUE(wals.Append(w, 0, i, i, i * 4 + static_cast<uint64_t>(w) + 1));
    }
  }
  EXPECT_EQ(wals.live_bytes(), 400 * sizeof(LogEntry));
  EXPECT_EQ(wals.peak_bytes(), 400 * sizeof(LogEntry));
  wals.ReleaseEpoch(0);
  EXPECT_EQ(wals.live_bytes(), 0u);
  EXPECT_EQ(wals.peak_bytes(), 400 * sizeof(LogEntry));  // peak is sticky
}

TEST_F(WalFixture, EntriesCrossChunkBoundaries) {
  ThreadWal wal(*log, 0);
  // A 256 KiB chunk holds ~10.9k entries; write past several chunks.
  const uint64_t kEntries = 200'000;
  for (uint64_t i = 1; i <= kEntries; i++) {
    ASSERT_TRUE(wal.Append(0, i, i, i));
  }
  EXPECT_GE(Chunks(*log), 2u);
  uint64_t count = 0;
  std::map<uint64_t, int> keys;
  WalSet::ScanAll(*log, [&](const LogEntry& entry) {
    count++;
    keys[entry.key]++;
  });
  EXPECT_EQ(count, kEntries);
  EXPECT_EQ(keys.size(), kEntries);  // no duplicates, none lost
}

// Lines of the log that the bytes [begin, end) of a chunk cover.
uint64_t LinesCovered(uint64_t begin, uint64_t end) { return (end - 1) / 64 - begin / 64 + 1; }

// A span writes its entries, flushes each line they cover once and fences
// once. Rolling into a fresh chunk adds a fence for the full chunk's lines,
// the three allocator persists that carve the chunk from the pool and the
// chunk's header persist. The one-entry case commits what Persist(entry, 24)
// does. Each chunk's entries start at the entry_offset its header records.
TEST_F(WalFixture, SpanAppendCommitsEachLineOnceWithOneFence) {
  ThreadWal wal(*log, 0);
  auto span_of = [](uint64_t first, uint64_t n) {
    std::vector<LogEntry> entries;
    for (uint64_t key = first; key < first + n; key++) {
      entries.push_back({key, key * 3, key});
    }
    return entries;
  };
  auto committed = [this](auto&& append) {
    auto before = device->stats().Snapshot();
    append();
    auto delta = device->stats().Snapshot().Delta(before);
    return std::pair{delta.committed_lines_by_component[static_cast<int>(trace::Component::kWal)],
                     delta.fences};
  };

  // The one-entry case: the chunk's carving and header, then the entry's line.
  EXPECT_EQ(committed([&] { ASSERT_TRUE(wal.Append(0, 1, 3, 1)); }),
            (std::pair<uint64_t, uint64_t>{2, 5}));
  const uint64_t first = Headers(*log).at(0)->entry_offset;
  const uint64_t per_chunk = Capacity(*Headers(*log).at(0));
  EXPECT_EQ(committed([&] { ASSERT_TRUE(wal.Append(0, span_of(2, 1))); }),
            (std::pair<uint64_t, uint64_t>{1, 1}));
  // The third entry straddles lines 1 and 2.
  EXPECT_EQ(committed([&] { ASSERT_TRUE(wal.Append(0, span_of(3, 1))); }),
            (std::pair<uint64_t, uint64_t>{2, 1}));

  // Fill the chunk to 10 entries short of its end in one span.
  const uint64_t filled = per_chunk - 10;
  EXPECT_EQ(
      committed([&] { ASSERT_TRUE(wal.Append(0, span_of(4, filled - 3))); }),
      (std::pair<uint64_t, uint64_t>{LinesCovered(first + 3 * 24, first + filled * 24), 1}));
  // A span of 100 entries: 10 end the chunk, 90 open the next.
  const auto rolled = committed([&] { ASSERT_TRUE(wal.Append(0, span_of(filled + 1, 100))); });
  ASSERT_EQ(Chunks(*log), 2u);
  const uint64_t next = Headers(*log).at(1)->entry_offset;
  const uint64_t rolled_lines = LinesCovered(first + filled * 24, first + per_chunk * 24) + 1 +
                                LinesCovered(next, next + 90 * 24);
  EXPECT_EQ(rolled, (std::pair<uint64_t, uint64_t>{rolled_lines, 6}));

  device->Crash();
  uint64_t expected = 1;
  WalSet::ScanAll(*log, [&expected](const LogEntry& entry) {
    EXPECT_EQ(entry.key, expected);
    EXPECT_EQ(entry.value, expected * 3);
    EXPECT_EQ(entry.timestamp(), expected);
    expected++;
  });
  EXPECT_EQ(expected, filled + 101);
}

// GC rounds the log slab cuts short free nothing, and every KV a round did
// not durably copy goes back to the B-log's epoch. Over 400 buffered KVs, two
// rounds fail, in either order: one that gets no I-log chunk and one that
// runs out in its second span. During the first of them a foreground upsert
// rewrites a KV the round has already visited; between the two spans of the
// one that runs out, foreground upserts log in the new epoch a KV the first
// span copied and one the round never reaches. A third round then
// completes. After each round, and after a crash, every KV's newest log
// entry holds its newest value.
TEST_F(WalFixture, GcRoundsCutShortKeepEveryBufferedValue) {
  for (bool span_first : {false, true}) {
    SCOPED_TRACE(span_first ? "cut after a span first" : "no chunk first");
    pmem::SlabAllocator::Options options = kLogSlabOptions;
    options.max_chunks = 4;
    auto small = pmem::SlabAllocator::Create(*pool, options);
    WalSet wals(*small, 4);
    std::atomic<uint32_t> epoch{0};
    uint64_t clock = 0;
    auto tick = [&clock] { return ++clock; };
    auto filler = [&](int worker, int log_epoch, uint64_t n) {
      std::vector<LogEntry> entries;
      for (uint64_t i = 0; i < n; i++) {
        entries.push_back({(1ULL << 40) + clock, 1, tick()});
      }
      ASSERT_TRUE(wals.Append(worker, log_epoch, entries));
    };

    // Worker 0 logs 50 full nodes of 8 KVs in epoch 0 and holds an epoch-1
    // chunk for foreground upserts during GC. Workers 1, 2 and 3 run the
    // rounds: 1 has no chunk, 2 has room for 200 copies and 3 for plenty.
    // That is the log slab's 4 chunks.
    std::vector<std::unique_ptr<BufferNode, decltype(&BufferNode::Delete)>> owned;
    std::vector<BufferNode*> nodes;
    std::map<uint64_t, uint64_t> expected;
    for (int n = 0; n < 50; n++) {
      owned.emplace_back(BufferNode::New(nullptr, 8), &BufferNode::Delete);
      BufferNode* node = owned.back().get();
      nodes.push_back(node);
      for (int slot = 0; slot < 8; slot++) {
        const uint64_t key = static_cast<uint64_t>(n * 8 + slot + 1);
        ASSERT_TRUE(wals.Append(0, 0, key, key * 10, tick()));
        node->slots()[slot].key.store(key);
        node->slots()[slot].value.store(key * 10);
        node->SetEpochBit(slot, 0);
        expected[key] = key * 10;
      }
      node->set_pos(8);
    }
    filler(0, 1, 1);
    filler(2, 1, 1);
    filler(2, 1, Capacity(*Headers(*small).back()) - 201);
    filler(3, 1, 1);
    ASSERT_EQ(Chunks(*small), 4u);

    auto check = [&](const std::string& when) {
      std::map<uint64_t, LogEntry> newest;
      WalSet::ScanAll(*small, [&newest](const LogEntry& entry) {
        auto [it, fresh] = newest.try_emplace(entry.key, entry);
        if (!fresh && entry.timestamp() > it->second.timestamp()) {
          it->second = entry;
        }
      });
      for (const auto& [key, value] : expected) {
        auto it = newest.find(key);
        ASSERT_NE(it, newest.end()) << when << ": lost key " << key;
        ASSERT_EQ(it->second.value, value) << when << ": stale value for key " << key;
      }
    };
    uint32_t start = 0;  // the epoch the running round flips from
    auto collect = [&] {
      EXPECT_NE(epoch.load(), start) << "nodes collected before the epoch flip";
      return nodes;
    };

    // A foreground upsert of `key` in the current epoch, as worker 0 would
    // log it once the round has unlocked the key's node.
    auto upsert = [&](uint64_t key, uint64_t value) {
      BufferNode* node = nodes[(key - 1) / 8];
      const int slot = static_cast<int>((key - 1) % 8);
      const uint32_t now = epoch.load();
      EXPECT_TRUE(wals.Append(0, static_cast<int>(now), key, value, tick()));
      node->slots()[slot].value.store(value);
      node->SetEpochBit(slot, now);
      expected[key] = value;
    };

    // The worker with no chunk fails at its first span of 170, after staging
    // 176 KVs. The one with room copies a span (nodes 0-21), then runs out
    // 30 copies into the next. While the first round stamps its 100th KV,
    // key 1 (staged first) is upserted in the new epoch.
    int stamped = 0;
    LocalityAwareGcRound first(wals, span_first ? 2 : 1, epoch, collect, [&] {
      if (++stamped == 100) {
        upsert(1, 11);
      }
      return tick();
    });
    if (span_first) {
      ASSERT_EQ(first.RunSpan(), LocalityAwareGcRound::Progress::kMore);
      upsert(2, 21);      // copied by the span that landed
      upsert(399, 3991);  // in node 49, which this round never reaches
    }
    EXPECT_EQ(first.RunSpan(), LocalityAwareGcRound::Progress::kCutShort);
    check("after the first round cut short");
    start = epoch.load();
    EXPECT_FALSE(LocalityAwareGcRound(wals, span_first ? 1 : 2, epoch, collect, tick).Finish());
    check("after the second round cut short");

    // The third round copies the rest and frees the B-log, worker 0's
    // epoch-0 chunk.
    start = epoch.load();
    EXPECT_TRUE(LocalityAwareGcRound(wals, 3, epoch, collect, tick).Finish());
    EXPECT_EQ(small->allocated_slots(), 3u);
    check("after the complete round");

    device->Crash();
    check("after a crash");
  }
}

TEST_F(WalFixture, EntriesSurviveCrash) {
  ThreadWal wal(*log, 0);
  for (uint64_t i = 1; i <= 300; i++) {
    wal.Append(0, i, i * 7, i);
  }
  device->Crash();
  int count = 0;
  WalSet::ScanAll(*log, [&count](const LogEntry& entry) {
    EXPECT_EQ(entry.value, entry.key * 7);
    count++;
  });
  EXPECT_EQ(count, 300);
}

// A chunk header is image input: an entry_offset below the first slot, off
// the 24 B entry grid, or past the last slot makes the chunk no log chunk,
// so the scan reads nothing outside it. The last slot itself is in range.
TEST_F(WalFixture, DamagedEntryOffsetIsNoLogChunk) {
  ThreadWal wal(*log, 0);
  for (uint64_t i = 1; i <= 10; i++) {
    ASSERT_TRUE(wal.Append(0, i, i, i));
  }
  device->Crash();
  LogChunkHeader* header = Headers(*log).at(0);
  const uint32_t last = kWalChunkBytes - sizeof(LogEntry);
  for (uint32_t offset : {0u, 40u, 65u, 72u, last + 8, last + 24, 0xFFFFFFF8u}) {
    SCOPED_TRACE(offset);
    header->entry_offset = offset;
    int entries = 0;
    EXPECT_FALSE(WalSet::ScanChunk(header, [&entries](const LogEntry&) { entries++; }));
    EXPECT_EQ(entries, 0);
  }
  header->entry_offset = last;
  int entries = 0;
  EXPECT_TRUE(WalSet::ScanChunk(header, [&entries](const LogEntry&) { entries++; }));
  EXPECT_EQ(entries, 0);  // the last slot was never written
}

// 48 workers each activate a chunk on the default geometry, 2 sockets of 4
// DIMMs. A chunk's first entry lands on its owner's own DIMM of the chunk's
// socket, so under either placement every socket's first entries spread
// evenly over its DIMMs: 12 on each DIMM of socket 0 when the workers fill
// it, 6 on each DIMM of both sockets when they alternate.
TEST(WalPlacement, FirstEntriesSpreadOverTheSocketsDimms) {
  constexpr int kWorkers = 48;
  for (int per_socket : {kWorkers, 0}) {
    SCOPED_TRACE(per_socket != 0 ? "fill-first" : "round-robin");
    kvindex::RuntimeOptions options;
    options.device.pool_bytes = 512 << 20;
    options.device.crash_tracking = false;
    kvindex::Runtime rt(options);
    const pmsim::PmDevice& device = rt.device();
    pmsim::ThreadContext boot(rt.device(), 0);
    auto log = pmem::SlabAllocator::Create(rt.pool(), kLogSlabOptions);
    WalSet wals(*log, kWorkers);
    for (int w = 0; w < kWorkers; w++) {
      pmsim::ThreadContext ctx(rt.device(), rt.SocketForWorker(w, per_socket), w);
      ASSERT_TRUE(wals.Append(w, 0, static_cast<uint64_t>(w) + 1, 1, 1));
    }
    std::vector<int> first_entries(static_cast<size_t>(device.config().total_dimms()), 0);
    for (const LogChunkHeader* header : Headers(*log)) {
      const uintptr_t chunk = device.OffsetOf(header);
      EXPECT_EQ(device.SocketOf(chunk),
                rt.SocketForWorker(static_cast<int>(header->owner_worker), per_socket));
      EXPECT_EQ((header->entry_offset - sizeof(LogChunkHeader)) % sizeof(LogEntry), 0u);
      EXPECT_LE(header->entry_offset, sizeof(LogChunkHeader) + 3 * pmsim::kInterleaveBytes);
      first_entries[static_cast<size_t>(device.DimmOf(chunk + header->entry_offset))]++;
    }
    const std::vector<int> expected =
        per_socket != 0 ? std::vector<int>{12, 12, 12, 12, 0, 0, 0, 0}
                        : std::vector<int>{6, 6, 6, 6, 6, 6, 6, 6};
    EXPECT_EQ(first_entries, expected);
  }
}

// Write combining of sequential appends is an ADR property: eADR's random
// cache evictions break it up.
struct AdrWalFixture : public WalFixture {
  AdrWalFixture() { backend = pmsim::MediaBackend::kAdrOptane; }
};

TEST_F(AdrWalFixture, SequentialAppendsHaveLowXbi) {
  // ~10.7 24 B entries share an XPLine (§3.5): media bytes per entry should
  // be close to 24, far below 256.
  ThreadWal wal(*log, 0);
  auto before = device->stats().Snapshot();
  const uint64_t kEntries = 50'000;
  for (uint64_t i = 1; i <= kEntries; i++) {
    wal.Append(0, i, i, i);
  }
  device->DrainBuffers();
  auto delta = device->stats().Snapshot().Delta(before);
  double media_per_entry =
      static_cast<double>(delta.media_write_bytes) / static_cast<double>(kEntries);
  EXPECT_LT(media_per_entry, 32.0);
  EXPECT_GT(media_per_entry, 20.0);
}

}  // namespace
}  // namespace cclbt::core
