// Factory producing any of the indexes under comparison by name, so the
// bench harness, YCSB driver and conformance tests are index-agnostic.
#ifndef SRC_BENCH_INDEX_FACTORY_H_
#define SRC_BENCH_INDEX_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/options.h"
#include "src/kvindex/kv_index.h"
#include "src/kvindex/runtime.h"

namespace cclbt::bench {

struct IndexConfig {
  // Passed through to CCL-BTree and CCL-Hash; ignored by baselines.
  core::TreeOptions tree;
  // CCL-Hash's fixed bucket count (choose ~keys/10 for ~70% load).
  size_t hash_buckets = 1 << 16;
};

// Names: "cclbtree", "fptree", "fastfair", "dptree", "utree", "lbtree",
// "pactree", "flatstore", "lsmstore", and "cclhash" (the paper's §6 hash,
// in neither name list below). Aborts on unknown name.
std::unique_ptr<kvindex::KvIndex> MakeIndex(const std::string& name, kvindex::Runtime& runtime,
                                            const IndexConfig& config = {});

// Lifecycle counterpart of MakeIndex: attaches to the persistent state a
// previous instance left on the runtime's (reopened) pool and runs
// Recover(). Returns nullptr when the index declares itself not recoverable
// or recovery fails (missing/invalid persistent root). Never fakes recovery
// by reformatting.
std::unique_ptr<kvindex::KvIndex> RecoverIndex(const std::string& name, kvindex::Runtime& runtime,
                                               const IndexConfig& config = {},
                                               int recovery_threads = 1);

// The persistent B+-tree competitors of the paper's Figures 3-19
// (everything except the log-structured stores of Table 3).
const std::vector<std::string>& TreeIndexNames();

// All indexes including FlatStore and the LSM store.
const std::vector<std::string>& AllIndexNames();

}  // namespace cclbt::bench

#endif  // SRC_BENCH_INDEX_FACTORY_H_
