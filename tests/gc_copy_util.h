// What one locality-aware GC round commits to PM, for the tests that check
// its I-log copy line by line (CclGc.CopyCommitsEachLineOncePerSpan and
// CclHash.GcCopyCommitsEachLineOncePerSpan).
#ifndef TESTS_GC_COPY_UTIL_H_
#define TESTS_GC_COPY_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/wal.h"
#include "src/pmem/slab_allocator.h"

namespace cclbt::testutil {

// The headers of `log`'s active chunks, in slot order.
inline std::vector<const core::LogChunkHeader*> ActiveLogChunks(const pmem::SlabAllocator& log) {
  std::vector<const core::LogChunkHeader*> active;
  log.ForEachSlot([&active](void* chunk) {
    const auto* header = static_cast<const core::LogChunkHeader*>(chunk);
    if (header->state == core::kChunkActive) {
      active.push_back(header);
    }
  });
  return active;
}

struct GcCommits {
  uint64_t lines = 0;   // committed by the GC component
  uint64_t fences = 0;  // of the whole device
};

// What a round commits that copied `copied` KVs into `ilog`, a chunk it
// carved from the pool, and released `released` B-log chunks. Each span of
// up to kGcSpanEntries copies commits the lines it covers, from the chunk's
// entry_offset on, with one fence. The chunk costs three allocator persists
// and its header persist, and each released chunk its free marker's.
inline GcCommits ExpectedGcCommits(const core::LogChunkHeader& ilog, uint64_t copied,
                                   uint64_t released) {
  EXPECT_LE(copied, (core::kWalChunkBytes - ilog.entry_offset) / sizeof(core::LogEntry))
      << "the copies do not fit one chunk";
  GcCommits commits{.lines = 1 + released, .fences = 3 + 1 + released};
  for (uint64_t first = 0; first < copied; first += core::kGcSpanEntries) {
    const uint64_t begin = ilog.entry_offset + first * sizeof(core::LogEntry);
    const uint64_t end = ilog.entry_offset +
                         std::min(first + core::kGcSpanEntries, copied) * sizeof(core::LogEntry);
    commits.lines += (end - 1) / 64 - begin / 64 + 1;
    commits.fences++;
  }
  return commits;
}

}  // namespace cclbt::testutil

#endif  // TESTS_GC_COPY_UTIL_H_
