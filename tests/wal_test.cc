// Unit tests for the write-ahead log layer: entry tagging/checksums, chunk
// recycling across generations, epoch accounting, and torn-entry rejection.
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/wal.h"
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
    arena = pmem::LogArena::Create(*pool);
  }

  pmsim::MediaBackend backend = pmsim::MediaBackend::kAuto;
  std::unique_ptr<pmsim::PmDevice> device;
  std::unique_ptr<pmsim::ThreadContext> ctx;
  std::unique_ptr<pmem::PmPool> pool;
  std::unique_ptr<pmem::LogArena> arena;
};

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
  ThreadWal wal(*arena, 0);
  for (uint64_t i = 1; i <= 1000; i++) {
    ASSERT_TRUE(wal.Append(/*epoch=*/0, i, i * 2, /*timestamp=*/i));
  }
  std::vector<LogEntry> seen;
  WalSet::ScanAll(*arena, [&seen](const LogEntry& entry) { seen.push_back(entry); });
  ASSERT_EQ(seen.size(), 1000u);
  for (uint64_t i = 0; i < seen.size(); i++) {
    EXPECT_EQ(seen[i].key, i + 1);
    EXPECT_EQ(seen[i].value, (i + 1) * 2);
    EXPECT_EQ(seen[i].timestamp(), i + 1);
  }
}

TEST_F(WalFixture, ReleaseFreesChunksAndStopsScan) {
  ThreadWal wal(*arena, 0);
  for (uint64_t i = 1; i <= 100; i++) {
    wal.Append(0, i, i, i);
  }
  EXPECT_EQ(wal.ReleaseEpoch(0), 100 * sizeof(LogEntry));
  int entries = 0;
  WalSet::ScanAll(*arena, [&entries](const LogEntry&) { entries++; });
  EXPECT_EQ(entries, 0);  // freed chunks are not scanned
  EXPECT_EQ(arena->free_chunks(), 1u);
}

TEST_F(WalFixture, RecycledChunkRejectsStaleGenerationEntries) {
  ThreadWal wal(*arena, 0);
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
  WalSet::ScanAll(*arena, [&seen](const LogEntry& entry) { seen.push_back(entry); });
  // Only the 10 fresh entries are valid; the 490 stale ones behind them have
  // the old generation tag and terminate the prefix scan.
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen[0].key, 1001u);
}

TEST_F(WalFixture, EpochsAreIndependentChains) {
  ThreadWal wal(*arena, 0);
  for (uint64_t i = 1; i <= 50; i++) {
    wal.Append(0, i, i, i);
    wal.Append(1, 100 + i, i, 100 + i);
  }
  EXPECT_EQ(wal.appended_bytes(0), 50 * sizeof(LogEntry));
  EXPECT_EQ(wal.appended_bytes(1), 50 * sizeof(LogEntry));
  wal.ReleaseEpoch(0);
  int survivors = 0;
  WalSet::ScanAll(*arena, [&survivors](const LogEntry& entry) {
    EXPECT_GE(entry.key, 100u);
    survivors++;
  });
  EXPECT_EQ(survivors, 50);
}

TEST_F(WalFixture, WalSetTracksLiveAndPeakBytes) {
  WalSet wals(*arena, 8);
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
  ThreadWal wal(*arena, 0);
  // 4 MB chunk holds ~174k entries; write past one chunk.
  const uint64_t kEntries = 200'000;
  for (uint64_t i = 1; i <= kEntries; i++) {
    ASSERT_TRUE(wal.Append(0, i, i, i));
  }
  EXPECT_GE(arena->total_chunks(), 2u);
  uint64_t count = 0;
  std::map<uint64_t, int> keys;
  WalSet::ScanAll(*arena, [&](const LogEntry& entry) {
    count++;
    keys[entry.key]++;
  });
  EXPECT_EQ(count, kEntries);
  EXPECT_EQ(keys.size(), kEntries);  // no duplicates, none lost
}

TEST_F(WalFixture, EntriesSurviveCrash) {
  ThreadWal wal(*arena, 0);
  for (uint64_t i = 1; i <= 300; i++) {
    wal.Append(0, i, i * 7, i);
  }
  device->Crash();
  int count = 0;
  WalSet::ScanAll(*arena, [&count](const LogEntry& entry) {
    EXPECT_EQ(entry.value, entry.key * 7);
    count++;
  });
  EXPECT_EQ(count, 300);
}

// Write combining of sequential appends is an ADR property: eADR's random
// cache evictions break it up.
struct AdrWalFixture : public WalFixture {
  AdrWalFixture() { backend = pmsim::MediaBackend::kAdrOptane; }
};

TEST_F(AdrWalFixture, SequentialAppendsHaveLowXbi) {
  // ~10.7 24 B entries share an XPLine (§3.5): media bytes per entry should
  // be close to 24, far below 256.
  ThreadWal wal(*arena, 0);
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
