// Unit tests for the persistent leaf-node layout: meta-word packing, slot
// search with fingerprints, free-slot/min-key helpers, fence-entry
// semantics; and for the buffer node's slot protocol.
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/buffer_node.h"
#include "src/core/leaf_node.h"

namespace cclbt::core {
namespace {

TEST(LeafMeta, PackAndUnpackRoundTrip) {
  for (uint64_t bitmap : {0ULL, 1ULL, 0x3FFFULL, 0x2AAAULL}) {
    for (uint64_t next : {0ULL, 256ULL, 1ULL << 20, (1ULL << 40) - 256}) {
      uint64_t meta = MakeMeta(bitmap, next);
      EXPECT_EQ(MetaBitmap(meta), bitmap);
      EXPECT_EQ(MetaNextOffset(meta), next);
    }
  }
}

TEST(LeafMeta, BitmapAndNextAreIndependent) {
  uint64_t meta = MakeMeta(0x1234, 4096);
  EXPECT_EQ(MetaBitmap(MakeMeta(MetaBitmap(meta), 0)), 0x1234u & kBitmapMask);
  EXPECT_EQ(MetaNextOffset(MakeMeta(0, MetaNextOffset(meta))), 4096u);
}

struct LeafFixture : public ::testing::Test {
  void SetUp() override {
    std::memset(static_cast<void*>(&leaf), 0, sizeof(leaf));
  }

  void Fill(int slot, uint64_t key, uint64_t value) {
    leaf.kvs[slot] = {key, value};
    leaf.fingerprints[slot] = Fingerprint8(key);
    uint64_t meta = leaf.meta.load();
    leaf.meta.store(MakeMeta(MetaBitmap(meta) | (1ULL << slot), MetaNextOffset(meta)));
  }

  PmLeaf leaf;
};

TEST_F(LeafFixture, FindSlotLocatesKeys) {
  Fill(3, 100, 1);
  Fill(7, 200, 2);
  EXPECT_EQ(leaf.FindSlot(100), 3);
  EXPECT_EQ(leaf.FindSlot(200), 7);
  EXPECT_EQ(leaf.FindSlot(300), -1);
}

TEST_F(LeafFixture, FindSlotIgnoresInvalidSlots) {
  leaf.kvs[5] = {42, 1};
  leaf.fingerprints[5] = Fingerprint8(42);
  // Bit 5 not set: the slot content must be invisible.
  EXPECT_EQ(leaf.FindSlot(42), -1);
}

TEST_F(LeafFixture, FingerprintCollisionStillChecksKey) {
  // Find two keys with colliding fingerprints.
  uint64_t a = 1;
  uint64_t b = 2;
  while (Fingerprint8(a) != Fingerprint8(b)) {
    b++;
  }
  Fill(0, a, 10);
  EXPECT_EQ(leaf.FindSlot(b), -1);  // same fingerprint, different key
  EXPECT_EQ(leaf.FindSlot(a), 0);
}

TEST_F(LeafFixture, FreeSlotFindsFirstGap) {
  EXPECT_EQ(leaf.FreeSlot(), 0);
  Fill(0, 1, 1);
  Fill(1, 2, 2);
  EXPECT_EQ(leaf.FreeSlot(), 2);
  for (int slot = 2; slot < kLeafSlots; slot++) {
    Fill(slot, static_cast<uint64_t>(slot) + 10, 1);
  }
  EXPECT_EQ(leaf.FreeSlot(), -1);  // full
}

TEST_F(LeafFixture, MinKeyScansValidSlots) {
  bool found = true;
  leaf.MinKey(&found);
  EXPECT_FALSE(found);
  Fill(4, 50, 1);
  Fill(9, 20, 1);
  Fill(12, 90, 1);
  uint64_t min = leaf.MinKey(&found);
  EXPECT_TRUE(found);
  EXPECT_EQ(min, 20u);
}

TEST_F(LeafFixture, LiveCountExcludesFences) {
  Fill(0, 10, 1);
  Fill(1, 20, 0);  // fence entry (tombstoned boundary key)
  Fill(2, 30, 3);
  EXPECT_EQ(leaf.ValidCount(), 3);
  EXPECT_EQ(leaf.LiveCount(), 2);
}

TEST_F(LeafFixture, MinKeyIncludesFences) {
  // Fences must keep anchoring the leaf's low bound for recovery routing.
  Fill(0, 10, 0);  // fence at the minimum
  Fill(1, 20, 2);
  bool found = false;
  EXPECT_EQ(leaf.MinKey(&found), 10u);
  EXPECT_TRUE(found);
}

TEST(LeafLayout, ExactlyOneXpline) {
  static_assert(sizeof(PmLeaf) == 256);
  static_assert(kLeafSlots == 14);
  // Header = meta(8) + ts(8) + fingerprints(14) + pad(2) = 32 bytes.
  EXPECT_EQ(offsetof(PmLeaf, kvs), 32u);
}

// --- buffer node slot protocol ------------------------------------------------

using kvindex::KeyValue;
using Kv = std::pair<uint64_t, uint64_t>;

// N_batch = 0 is covered through the indexes (NbatchTest, CclAblation and
// CclHash.BaseModeIsDurablePerOperation).
class BufferNodeTest : public ::testing::Test {
 protected:
  void TearDown() override { BufferNode::Delete(bn_); }

  Kv Slot(int i) const { return {bn_->slots()[i].key.load(), bn_->slots()[i].value.load()}; }
  void Upsert(uint64_t key, uint64_t value, uint32_t epoch = 0) {
    const int slot = bn_->UpsertSlot(key);
    ASSERT_GE(slot, 0) << "key " << key;
    bn_->Put(slot, key, value, epoch);
  }
  // Flushes with `extra` and returns the one batch written.
  std::vector<Kv> Flush(const std::vector<KeyValue>& extra) {
    std::vector<Kv> written;
    int calls = 0;
    bn_->Flush(extra, [&](KeyValue* batch, int n) {
      calls++;
      for (int i = 0; i < n; i++) {
        written.emplace_back(batch[i].key, batch[i].value);
      }
    });
    EXPECT_EQ(calls, 1);
    return written;
  }

  BufferNode* bn_ = BufferNode::New(nullptr, 3);
};

TEST_F(BufferNodeTest, StagesAtPosAndUpdatesUnflushedKeysInPlace) {
  Upsert(10, 100, /*epoch=*/1);
  Upsert(20, 200);
  EXPECT_EQ(bn_->pos(), 2);
  EXPECT_EQ(bn_->EpochBit(0), 1u);
  // The update takes the key's slot and its log entry's epoch; pos stays.
  EXPECT_EQ(bn_->UpsertSlot(10), 0);
  bn_->Put(0, 10, 101, 0);
  EXPECT_EQ(bn_->pos(), 2);
  EXPECT_EQ(bn_->EpochBit(0), 0u);
  EXPECT_EQ(Slot(0), Kv(10, 101));
  EXPECT_EQ(Slot(1), Kv(20, 200));
}

TEST_F(BufferNodeTest, FullNodeMakesTriggerWritesAndFlushesInSlotOrder) {
  Upsert(1, 10);
  Upsert(2, 20);
  Upsert(3, 30);
  EXPECT_EQ(bn_->UpsertSlot(4), -1);
  EXPECT_EQ(bn_->UpsertSlot(2), 1);  // an unflushed key still updates in place
  EXPECT_EQ(Flush({{4, 40}}), (std::vector<Kv>{{1, 10}, {2, 20}, {3, 30}, {4, 40}}));
  // Every slot now caches flushed state; slot 0 the trigger KV.
  EXPECT_EQ(bn_->pos(), 0);
  EXPECT_EQ(Slot(0), Kv(4, 40));
  EXPECT_EQ(Slot(1), Kv(2, 20));
  EXPECT_EQ(Slot(2), Kv(3, 30));
}

TEST_F(BufferNodeTest, FlushWithoutExtraLeavesTheCache) {
  Upsert(1, 10);
  Upsert(2, 20);
  EXPECT_EQ(Flush({}), (std::vector<Kv>{{1, 10}, {2, 20}}));
  EXPECT_EQ(bn_->pos(), 0);
  EXPECT_EQ(Slot(0), Kv(1, 10));
  EXPECT_EQ(Slot(1), Kv(2, 20));
}

TEST_F(BufferNodeTest, StaleCachedCopyMovesSoTheKeyIsInOneSlot) {
  Upsert(1, 10);
  Upsert(2, 20);
  Upsert(3, 30);
  Flush({{4, 40}});  // cache: 4, 2, 3
  // Key 3 is cached in slot 2; the upsert takes slot pos = 0, and slot 0's
  // cached KV moves to slot 2.
  EXPECT_EQ(bn_->UpsertSlot(3), 0);
  bn_->Put(0, 3, 31, 0);
  EXPECT_EQ(bn_->KeyMatch(3), 1u << 0);
  EXPECT_EQ(Slot(0), Kv(3, 31));
  EXPECT_EQ(Slot(2), Kv(4, 40));
  // A copy cached in slot pos itself is overwritten in place.
  EXPECT_EQ(bn_->UpsertSlot(2), 1);
  bn_->Put(1, 2, 21, 0);
  EXPECT_EQ(bn_->KeyMatch(2), 1u << 1);
  EXPECT_EQ(bn_->pos(), 2);
  EXPECT_EQ(Flush({}), (std::vector<Kv>{{3, 31}, {2, 21}}));
}

// Upsert logs a buffered KV before it takes its slot, and a trigger write
// only under naive logging; a trigger write flushes with the KV last.
TEST_F(BufferNodeTest, UpsertLogsBufferedKvsAndTriggerWritesOnlyUnderNaiveLogging) {
  std::vector<Kv> logged;
  std::vector<Kv> written;
  auto upsert = [&](uint64_t key, uint64_t value, bool log_trigger) {
    return bn_->Upsert(
        key, value, /*epoch=*/0, log_trigger,
        [&] {
          EXPECT_EQ(bn_->KeyMatch(key) & ((1u << bn_->pos()) - 1), 0u) << "logged after Put";
          logged.emplace_back(key, value);
          return true;
        },
        [&](KeyValue* batch, int n) {
          for (int i = 0; i < n; i++) {
            written.emplace_back(batch[i].key, batch[i].value);
          }
        });
  };
  EXPECT_FALSE(upsert(1, 10, false));
  EXPECT_FALSE(upsert(2, 20, false));
  EXPECT_FALSE(upsert(3, 30, false));
  EXPECT_TRUE(upsert(4, 40, false));
  EXPECT_EQ(logged, (std::vector<Kv>{{1, 10}, {2, 20}, {3, 30}}));
  EXPECT_EQ(written, (std::vector<Kv>{{1, 10}, {2, 20}, {3, 30}, {4, 40}}));
  EXPECT_EQ(Slot(0), Kv(4, 40));
  written.clear();
  EXPECT_FALSE(upsert(5, 50, true));
  EXPECT_FALSE(upsert(6, 60, true));
  EXPECT_FALSE(upsert(7, 70, true));
  EXPECT_TRUE(upsert(8, 80, true));
  EXPECT_EQ(logged.size(), 7u);
  EXPECT_EQ(logged.back(), Kv(8, 80));
  EXPECT_EQ(written, (std::vector<Kv>{{5, 50}, {6, 60}, {7, 70}, {8, 80}}));
}

}  // namespace
}  // namespace cclbt::core
