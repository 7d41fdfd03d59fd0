// Tunables of the CCL indexes (CclIndex): CCL-BTree reads every field,
// CCL-Hash every field but root_slot. Defaults match the paper (§3.2:
// N_batch = 2, §3.4: TH_log = 20%, one GC thread).
#ifndef SRC_CORE_OPTIONS_H_
#define SRC_CORE_OPTIONS_H_

#include <cstdint>

namespace cclbt::core {

enum class GcMode {
  kNone,           // never reclaim (paper Figure 14 "w/o GC")
  kNaive,          // stop-the-world flush-to-leaves (Figure 14 "naive GC")
  kLocalityAware,  // B-log/I-log epoch flip (the paper's design, §3.4)
};

struct TreeOptions {
  // Number of KV slots per buffer node (paper N_batch), 0 to 6. With 0
  // every upsert is a trigger write straight to its leaf, which
  // write-conservative logging never logs.
  int nbatch = 2;
  // GC trigger: run when log bytes exceed th_log_pct% of leaf bytes (of
  // bucket bytes, directory and overflow, for CCL-Hash).
  int th_log_pct = 20;
  GcMode gc_mode = GcMode::kLocalityAware;
  // Ablation arms (paper Figure 13):
  //   nbatch=0, conservative=true      -> "Base"   (direct leaf writes, no log)
  //   nbatch=2, conservative=false     -> "+BNode" (naive logging)
  //   nbatch=2, conservative=true      -> "+WLog"  (full design)
  bool write_conservative_logging = true;
  // GC is a virtual-time participant (DESIGN.md §10): every
  // gc_quantum_ops-th upsert checks the trigger (the cooperative quantum)
  // and runs a due span on the index's own ThreadContext, so runs stay
  // deterministic. Smaller quanta react faster to log growth at the price
  // of more trigger checks on the write path. 0: GC runs only when a caller
  // drives it (GcTick, RunGcOnce).
  int gc_quantum_ops = 64;
  // Maximum worker ids (threads) the per-thread WAL array supports; the
  // index's GC context appends its I-log entries as the last one.
  int max_workers = 136;
  // Pool app-root slot holding this tree's persistent root record. Multiple
  // trees can coexist in one pool (the sharded service gives each shard its
  // own tree) as long as each uses a distinct slot; slot 1 is conventionally
  // CCL-Hash's (pmem::kNumAppRoots slots total).
  int root_slot = 0;
};

}  // namespace cclbt::core

#endif  // SRC_CORE_OPTIONS_H_
