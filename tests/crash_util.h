// Shared crash+recover boilerplate for tests, built on the persistence
// lifecycle API (DESIGN.md §9): PmDevice::Crash/CrashTorn ->
// Runtime::Reopen (superblock validation) -> attach + Recover.
//
// Callers must NOT hold a live worker ThreadContext across these helpers
// beyond the crash: recovery opens its own boot context.
#ifndef TESTS_CRASH_UTIL_H_
#define TESTS_CRASH_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/ccl_btree.h"
#include "src/kvindex/runtime.h"

namespace cclbt::testutil {

// Power-fails the device (optionally tearing the pending fence group with
// `torn_seed`) and re-attaches the runtime to the surviving media. Any
// superblock validation failure is a test failure.
inline void CrashRestart(kvindex::Runtime& rt, bool torn = false, uint64_t torn_seed = 0) {
  if (torn) {
    rt.device().CrashTorn(torn_seed);
  } else {
    rt.device().Crash();
  }
  std::string error;
  ASSERT_TRUE(rt.Reopen(&error)) << error;
}

// Crash + reopen + CCL-BTree attach/recover in one step. Returns the
// recovered tree (never nullptr on success; failures are EXPECT-ed so the
// calling test fails with context).
inline std::unique_ptr<core::CclBTree> CrashAndRecoverTree(kvindex::Runtime& rt,
                                                           const core::TreeOptions& options,
                                                           int recovery_threads = 1,
                                                           bool torn = false,
                                                           uint64_t torn_seed = 0) {
  if (torn) {
    rt.device().CrashTorn(torn_seed);
  } else {
    rt.device().Crash();
  }
  std::string error;
  EXPECT_TRUE(rt.Reopen(&error)) << error;
  auto tree = std::make_unique<core::CclBTree>(rt, options, kvindex::Lifecycle::kAttach);
  EXPECT_TRUE(tree->Recover(rt, recovery_threads));
  return tree;
}

}  // namespace cclbt::testutil

#endif  // TESTS_CRASH_UTIL_H_
