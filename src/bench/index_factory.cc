#include "src/bench/index_factory.h"

#include <cstdio>
#include <cstdlib>

#include "src/baselines/dptree.h"
#include "src/baselines/fastfair.h"
#include "src/baselines/flatstore.h"
#include "src/baselines/leaf_tree.h"
#include "src/baselines/lsmstore.h"
#include "src/baselines/utree.h"
#include "src/core/ccl_btree.h"
#include "src/core/ccl_hash.h"

namespace cclbt::bench {

std::unique_ptr<kvindex::KvIndex> MakeIndex(const std::string& name, kvindex::Runtime& runtime,
                                            const IndexConfig& config) {
  if (name == "cclbtree") {
    return std::make_unique<core::CclBTree>(runtime, config.tree);
  }
  if (name == "fptree") {
    baselines::LeafTree::Options options;
    options.policy = baselines::LeafPolicy::kFpTree;
    options.name = "FPTree";
    return std::make_unique<baselines::LeafTree>(runtime, options);
  }
  if (name == "lbtree") {
    baselines::LeafTree::Options options;
    options.policy = baselines::LeafPolicy::kLbTree;
    options.name = "LB+-Tree";
    return std::make_unique<baselines::LeafTree>(runtime, options);
  }
  if (name == "pactree") {
    baselines::LeafTree::Options options;
    options.policy = baselines::LeafPolicy::kSorted;
    options.numa_local_alloc = true;
    options.name = "PACTree";
    return std::make_unique<baselines::LeafTree>(runtime, options);
  }
  if (name == "fastfair") {
    return std::make_unique<baselines::FastFairTree>(runtime);
  }
  if (name == "utree") {
    return std::make_unique<baselines::UTree>(runtime);
  }
  if (name == "dptree") {
    return std::make_unique<baselines::DpTree>(runtime);
  }
  if (name == "flatstore") {
    return std::make_unique<baselines::FlatStore>(runtime);
  }
  if (name == "lsmstore") {
    return std::make_unique<baselines::LsmStore>(runtime);
  }
  if (name == "cclhash") {
    return std::make_unique<core::CclHashTable>(runtime, config.tree, config.hash_buckets);
  }
  std::fprintf(stderr, "unknown index name: %s\n", name.c_str());
  std::abort();
}

std::unique_ptr<kvindex::KvIndex> RecoverIndex(const std::string& name, kvindex::Runtime& runtime,
                                               const IndexConfig& config, int recovery_threads) {
  std::unique_ptr<kvindex::KvIndex> index;
  if (name == "cclbtree") {
    index = std::make_unique<core::CclBTree>(runtime, config.tree, kvindex::Lifecycle::kAttach);
  } else if (name == "fastfair") {
    index = std::make_unique<baselines::FastFairTree>(runtime, kvindex::Lifecycle::kAttach);
  } else if (name == "cclhash") {
    index = std::make_unique<core::CclHashTable>(runtime, config.tree, config.hash_buckets,
                                                 kvindex::Lifecycle::kAttach);
  } else {
    return nullptr;  // declared not_recoverable
  }
  if (!index->Recover(runtime, recovery_threads)) {
    return nullptr;
  }
  return index;
}

const std::vector<std::string>& TreeIndexNames() {
  static const std::vector<std::string> names = {"fptree",  "fastfair", "dptree", "utree",
                                                 "lbtree",  "pactree",  "cclbtree"};
  return names;
}

const std::vector<std::string>& AllIndexNames() {
  static const std::vector<std::string> names = {"fptree",    "fastfair", "dptree",
                                                 "utree",     "lbtree",   "pactree",
                                                 "flatstore", "lsmstore", "cclbtree"};
  return names;
}

}  // namespace cclbt::bench
