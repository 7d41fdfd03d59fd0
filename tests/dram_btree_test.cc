// Unit + property tests for the DRAM inner-index B+-tree (floor routing,
// splits across many levels, removal, ordered iteration, concurrency).
#include <algorithm>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/kvindex/dram_btree.h"

namespace cclbt::kvindex {
namespace {

TEST(DramBTree, EmptyRouteFloorNotFound) {
  DramBTree<int> tree;
  bool found = true;
  tree.RouteFloor(5, &found);
  EXPECT_FALSE(found);
}

TEST(DramBTree, SingleEntryFloor) {
  DramBTree<int> tree;
  tree.Insert(10, 1);
  bool found = false;
  EXPECT_EQ(tree.RouteFloor(10, &found), 1);
  EXPECT_TRUE(found);
  EXPECT_EQ(tree.RouteFloor(100, &found), 1);
  EXPECT_TRUE(found);
  tree.RouteFloor(9, &found);
  EXPECT_FALSE(found);
}

TEST(DramBTree, FloorSemanticsAcrossManyKeys) {
  DramBTree<uint64_t> tree;
  for (uint64_t k = 10; k <= 1000; k += 10) {
    tree.Insert(k, k);
  }
  bool found = false;
  EXPECT_EQ(tree.RouteFloor(10, &found), 10u);
  EXPECT_EQ(tree.RouteFloor(15, &found), 10u);
  EXPECT_EQ(tree.RouteFloor(999, &found), 990u);
  EXPECT_EQ(tree.RouteFloor(5000, &found), 1000u);
}

TEST(DramBTree, InsertOverwritesExisting) {
  DramBTree<int> tree;
  tree.Insert(5, 1);
  tree.Insert(5, 2);
  int value = 0;
  EXPECT_TRUE(tree.Get(5, &value));
  EXPECT_EQ(value, 2);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(DramBTree, RouteFloorEntryReportsSeparator) {
  DramBTree<uint64_t> tree;
  tree.Insert(10, 1);
  tree.Insert(20, 2);
  uint64_t sep = 0;
  uint64_t value = 0;
  ASSERT_TRUE(tree.RouteFloorEntry(15, &sep, &value));
  EXPECT_EQ(sep, 10u);
  EXPECT_EQ(value, 1u);
  ASSERT_TRUE(tree.RouteFloorEntry(20, &sep, &value));
  EXPECT_EQ(sep, 20u);
  EXPECT_FALSE(tree.RouteFloorEntry(5, &sep, &value));
}

TEST(DramBTree, RouteFloorEntryAfterBoundaryRemoval) {
  DramBTree<uint64_t> tree;
  for (uint64_t k = 1; k <= 500; k++) {
    tree.Insert(k * 2, k);
  }
  // Remove a leaf-minimum candidate range and re-check floor+separator.
  for (uint64_t k = 100; k <= 140; k++) {
    tree.Remove(k * 2);
  }
  uint64_t sep = 0;
  uint64_t value = 0;
  ASSERT_TRUE(tree.RouteFloorEntry(250, &sep, &value));
  EXPECT_EQ(sep, 198u);  // greatest surviving separator <= 250
  EXPECT_EQ(value, 99u);
}

TEST(DramBTree, NextEntryStepsInOrder) {
  DramBTree<uint64_t> tree;
  for (uint64_t k : {5u, 10u, 20u, 40u}) {
    tree.Insert(k, k);
  }
  uint64_t next_key = 0;
  uint64_t next_value = 0;
  EXPECT_TRUE(tree.NextEntry(5, &next_key, &next_value));
  EXPECT_EQ(next_key, 10u);
  EXPECT_TRUE(tree.NextEntry(11, &next_key, &next_value));
  EXPECT_EQ(next_key, 20u);
  EXPECT_FALSE(tree.NextEntry(40, &next_key, &next_value));
}

TEST(DramBTree, RemoveThenFloorFallsBack) {
  DramBTree<uint64_t> tree;
  for (uint64_t k = 1; k <= 300; k++) {
    tree.Insert(k * 10, k);
  }
  // Remove a whole run so a leaf's minimum disappears.
  for (uint64_t k = 100; k <= 160; k++) {
    EXPECT_TRUE(tree.Remove(k * 10));
  }
  bool found = false;
  EXPECT_EQ(tree.RouteFloor(1305, &found), 99u);  // floor is 990 -> payload 99
  EXPECT_TRUE(found);
}

TEST(DramBTree, RemoveMissingReturnsFalse) {
  DramBTree<int> tree;
  tree.Insert(1, 1);
  EXPECT_FALSE(tree.Remove(2));
  EXPECT_TRUE(tree.Remove(1));
  EXPECT_FALSE(tree.Remove(1));
}

TEST(DramBTree, ForEachFromVisitsCoveringRangeFirst) {
  DramBTree<uint64_t> tree;
  for (uint64_t k : {10u, 20u, 30u}) {
    tree.Insert(k, k);
  }
  std::vector<uint64_t> visited;
  tree.ForEachFrom(25, [&](uint64_t key, uint64_t) {
    visited.push_back(key);
    return true;
  });
  ASSERT_EQ(visited.size(), 2u);
  EXPECT_EQ(visited[0], 20u);  // covering separator included
  EXPECT_EQ(visited[1], 30u);
}

TEST(DramBTree, MatchesStdMapOnRandomOps) {
  DramBTree<uint64_t> tree;
  std::map<uint64_t, uint64_t> model;
  Rng rng(17);
  for (int i = 0; i < 50000; i++) {
    uint64_t key = rng.NextBounded(5000) + 1;
    switch (rng.NextBounded(3)) {
      case 0:
      case 1: {
        uint64_t value = rng.Next();
        tree.Insert(key, value);
        model[key] = value;
        break;
      }
      case 2: {
        EXPECT_EQ(tree.Remove(key), model.erase(key) > 0);
        break;
      }
    }
    if (i % 1000 == 0 && !model.empty()) {
      uint64_t probe = rng.NextBounded(6000);
      auto it = model.upper_bound(probe);
      bool found = false;
      uint64_t got = tree.RouteFloor(probe, &found);
      if (it == model.begin()) {
        EXPECT_FALSE(found);
      } else {
        ASSERT_TRUE(found);
        EXPECT_EQ(got, std::prev(it)->second);
      }
    }
  }
  EXPECT_EQ(tree.size(), model.size());
  // Full iteration matches the model.
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  tree.ForEachFrom(0, [&](uint64_t key, uint64_t value) {
    entries.emplace_back(key, value);
    return true;
  });
  ASSERT_EQ(entries.size(), model.size());
  auto model_it = model.begin();
  for (const auto& [key, value] : entries) {
    EXPECT_EQ(key, model_it->first);
    EXPECT_EQ(value, model_it->second);
    ++model_it;
  }
}

TEST(DramBTree, DeepSplitsKeepOrder) {
  DramBTree<uint64_t> tree;
  const uint64_t kN = 200000;
  for (uint64_t i = 0; i < kN; i++) {
    tree.Insert(Mix64(i) | 1, i);
  }
  EXPECT_EQ(tree.size(), kN);
  EXPECT_GE(tree.height(), 3);
  uint64_t prev = 0;
  size_t count = 0;
  tree.ForEachFrom(0, [&](uint64_t key, uint64_t) {
    EXPECT_GT(key, prev);
    prev = key;
    count++;
    return true;
  });
  EXPECT_EQ(count, kN);
}

TEST(DramBTree, ConcurrentReadersDuringInserts) {
  DramBTree<uint64_t> tree;
  for (uint64_t k = 1; k <= 1000; k++) {
    tree.Insert(k * 100, k);
  }
  std::atomic<bool> stop{false};
  std::thread writer([&tree, &stop] {
    for (uint64_t k = 1; k <= 20000 && !stop.load(); k++) {
      tree.Insert(k * 100 + 50, k);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  std::atomic<int> errors{0};
  for (int t = 0; t < 3; t++) {
    readers.emplace_back([&tree, &stop, &errors, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      while (!stop.load()) {
        uint64_t probe = rng.NextBounded(100000) + 100;
        bool found = false;
        tree.RouteFloor(probe, &found);
        if (!found) {
          errors++;
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(errors.load(), 0);
}

// The optimistic read path must answer like the model on a quiescent tree:
// RouteFloor and RouteFloorEntry agree with each other and with the floor
// entry of an ordered map.
TEST(DramBTree, LockedReadsMatchOptimistic) {
  DramBTree<uint64_t> tree;
  Rng rng(42);
  std::map<uint64_t, uint64_t> model;
  for (int i = 0; i < 20000; i++) {
    uint64_t key = rng.NextBounded(30000) + 1;
    tree.Insert(key, key * 3);
    model[key] = key * 3;
  }
  for (int i = 0; i < 5000; i++) {
    uint64_t probe = rng.NextBounded(35000);
    bool found = false;
    uint64_t got = tree.RouteFloor(probe, &found);
    uint64_t sep = 0;
    uint64_t val = 0;
    bool has = tree.RouteFloorEntry(probe, &sep, &val);
    auto it = model.upper_bound(probe);
    ASSERT_EQ(has, it != model.begin());
    ASSERT_EQ(found, has);
    if (has) {
      EXPECT_EQ(got, val);
      EXPECT_EQ(sep, std::prev(it)->first);
      EXPECT_EQ(val, std::prev(it)->second);
    }
  }
}

// Stress for the optimistic (version-validated) descent: concurrent
// inserts/removes racing readers that check internal consistency of every
// answer. Values are derived from keys so a torn read that slipped past
// validation would surface as a sep/value mismatch. Run under TSan via
// tools/sanitize.sh (dram_btree is in ci.sh's SANITIZE_FILTER).
TEST(DramBTree, OptimisticDescentStress) {
  DramBTree<uint64_t> tree;
  constexpr uint64_t kSpace = 8192;
  // Persistent floor sentinel so RouteFloor always finds something.
  tree.Insert(1, 1);
  for (uint64_t k = 2; k <= kSpace; k += 2) {
    tree.Insert(k, k);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; t++) {
    writers.emplace_back([&tree, t] {
      Rng rng(static_cast<uint64_t>(t) + 7);
      for (int i = 0; i < 40000; i++) {
        uint64_t key = rng.NextBounded(kSpace - 1) + 2;  // never touch sentinel 1
        if (rng.NextBounded(3) == 0) {
          tree.Remove(key);
        } else {
          tree.Insert(key, key);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; t++) {
    readers.emplace_back([&tree, &stop, &errors, t] {
      Rng rng(static_cast<uint64_t>(t) + 99);
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t probe = rng.NextBounded(kSpace + 64) + 1;
        uint64_t sep = 0;
        uint64_t value = 0;
        if (!tree.RouteFloorEntry(probe, &sep, &value)) {
          errors++;  // sentinel 1 guarantees a floor exists
          continue;
        }
        // Internal consistency: separator is a floor and value tracks key.
        if (sep > probe || value != sep) {
          errors++;
        }
        uint64_t got = 0;
        if (tree.Get(probe, &got) && got != probe) {
          errors++;
        }
        uint64_t next_key = 0;
        uint64_t next_value = 0;
        if (tree.NextEntry(probe, &next_key, &next_value) &&
            (next_key <= probe || next_value != next_key)) {
          errors++;
        }
      }
    });
  }
  for (auto& writer : writers) {
    writer.join();
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(errors.load(), 0);
  // Post-race structural sanity: full in-order walk, every value == key.
  uint64_t prev = 0;
  tree.ForEachFrom(0, [&](uint64_t key, uint64_t value) {
    EXPECT_GT(key, prev);
    EXPECT_EQ(value, key);
    prev = key;
    return true;
  });
}

}  // namespace
}  // namespace cclbt::kvindex
