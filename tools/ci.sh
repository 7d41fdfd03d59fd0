#!/bin/bash
# The repo's CI entry point, runnable locally:
#
#   1. lint: tools/lint_pm_api.py --self-test (repo persistence/determinism
#      rules; the self-test seeds one violation per rule first)
#   2. tier-1: -Werror build + full ctest (the gate every change must pass)
#   3. clang-tidy: static analysis build with .clang-tidy (skipped with a
#      notice when clang-tidy is not installed)
#   3b. thread-safety: clang -Wthread-safety -Werror build of the annotated
#      sync:: lock layer (DESIGN.md §16; skipped with a notice when clang++
#      is not installed — the annotations expand to nothing under gcc)
#   4. simd-off: the full test suite re-run with CCL_SIMD=off so the scalar
#      fallbacks of src/common/simd.h stay exercised and provably give the
#      same query results as the SIMD paths (DESIGN.md §12)
#   5. checkers: the full test suite (incl. the crash matrix) re-run with
#      CCL_PMCHECK=1 CCL_LOCKCHECK=1 so every test workload doubles as a
#      persistency-ordering and locking-discipline check, with lockcheck's
#      fence-publish cross-check against pmcheck live (DESIGN.md §11, §16)
#   6. crash: quick crash-injection matrix profile (ctest label "crash")
#   6b. backend-matrix: the full test suite re-run under each non-default
#      persistence-domain backend (CCL_BACKEND=eadr, then =cxl; DESIGN.md
#      §14) so every test workload also runs in the flush-free and
#      page-granular domains
#   6c. service: the sharded KV front-end suite re-run as a named step
#      (ctest -R service) so a socket-pinning, admission-control, or
#      acked-write-durability regression is named explicitly (DESIGN.md §15)
#   7. determinism: staged benches run twice with pmcheck and lockcheck
#      enabled, their full-precision JSON tails and .pmmetrics dumps diffed
#      (run_benches.sh --determinism; §10 — diagnostics must not perturb
#      virtual time), and `pmctl check` gates every run-1 dump: a persistency
#      or lock-discipline violation, or a checked run without a checker
#      record, fails the step; includes the
#      bench_backend_matrix sweep across all backends, the open-loop
#      bench_service_tail sweep (virtual tail latencies must be bit-stable),
#      fig14's three GC rows (each writes a dump, so their timelines are
#      gated too), fig17's recovery rows (replay on virtual workers) and the
#      CCL-Hash ablation rows (extra_hash)
#   8. metrics-determinism: the histogram / epoch-series test binary re-run
#      on its own so a nondeterministic .pmmetrics series is named
#      explicitly in the CI log (step 7 additionally diffs the epoch series
#      emitted by the real benches)
#   9. bench-gate: tools/bench_gate.py --self-test (seeds a fake regression
#      and requires detection), then fresh results staged at the
#      bench/baselines/MANIFEST scale/filter and compared against the
#      checked-in baselines — virtual metrics exact, wall within noise band
#  10. ASan+UBSan on the pmsim + trace + GC-scheduling + pmcheck + lockcheck
#      + simd + dram_btree + media_model + service + crash_matrix + metrics
#      + ccl_btree + scan_property + ccl_hash + wal + pmem test subset (wal
#      and pmem: the log appends, the copy round and the registry checks
#      recovery runs on), plus index_conformance_test, which drives every
#      baseline index
#  11. TSan on the same subset (gc_scheduling_test's CooperativeGcOnRealThreads
#      is the real-concurrency stress of the cooperative GC quantum;
#      dram_btree_test's descent stress races optimistic readers against
#      writers; service_test's real-thread pinning regimes run instrumented
#      here, and so do the core tree's reader/writer tests: ccl_btree_test's
#      reproduce the race tools/tsan.supp suppresses, scan_property_test's
#      scan under concurrent inserts).
#      index_conformance_test stays ASan-only: TSan reports an unsuppressed
#      race in its ConcurrentMixedSmoke/fptree (LeafTree::InsertUnsorted
#      writes fingerprints that LeafTree::Lookup reads via PmLeaf::FindSlot).
#
# The sanitizer passes cover the code with the trickiest concurrency story —
# the lock-striped XPBuffer, sharded stats, the trace ring/registry, and
# GC rounds entered from concurrent upserts — without paying for a fully
# instrumented build of every bench binary.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE_FILTER="pmsim|trace|gc_scheduling|pmcheck|lockcheck|simd|dram_btree|media_model|service|crash_matrix|metrics|ccl_btree|scan_property|ccl_hash|wal|pmem"

echo "=== lint: lint_pm_api.py self-test + tree ==="
python3 tools/lint_pm_api.py --self-test

echo "=== tier-1: configure + build (-Werror) ==="
cmake -B build -S . -DWERROR=ON >/dev/null
cmake --build build -j"$(nproc)"
echo "=== tier-1: ctest ==="
ctest --test-dir build --output-on-failure -j"$(nproc)"

# Static analysis: full tree under clang-tidy (checks in .clang-tidy). A
# separate build dir keeps the analyzed objects away from the tier-1 build.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy: static analysis build ==="
  cmake -B build-tidy -S . -DCLANG_TIDY=ON >/dev/null
  cmake --build build-tidy -j"$(nproc)"
else
  echo "=== clang-tidy: SKIPPED (clang-tidy not installed) ==="
fi

# Thread-safety analysis: the sync:: wrapper layer (src/common/lock.h) carries
# clang CAPABILITY annotations and every guarded field is GUARDED_BY its
# capability (DESIGN.md §16); -Wthread-safety -Werror makes lock discipline a
# build-time invariant. Clang-only — the macros expand to nothing under gcc,
# so the step self-skips when no clang++ is installed.
if command -v clang++ >/dev/null 2>&1; then
  echo "=== thread-safety: clang -Wthread-safety -Werror build ==="
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_CXX_FLAGS="-Wthread-safety" -DWERROR=ON >/dev/null
  cmake --build build-tsa -j"$(nproc)"
else
  echo "=== thread-safety: SKIPPED (clang++ not installed) ==="
fi

# Scalar-fallback pass: the same suite with SIMD dispatch forced off. Any
# test that would pass only with the host's vector paths fails here, which
# pins the contract that CCL_SIMD never changes query results.
echo "=== simd-off: ctest with CCL_SIMD=off ==="
CCL_SIMD=off ctest --test-dir build --output-on-failure -j"$(nproc)"

# Shadow-checker pass: every test workload re-run with both checkers on —
# store→flush→fence ordering, lockset intersection, lock-order cycles, and
# the fence-publish cross-check between them (DESIGN.md §11, §16). Includes
# the crash matrix so checker state across simulated crashes stays covered.
# Tests that assert checker-off defaults clear the env themselves;
# pmcheck_test and lockcheck_test additionally assert zero diagnostics on
# real cclbtree and service workloads, so checker regressions surface here.
echo "=== checkers: ctest with CCL_PMCHECK=1 CCL_LOCKCHECK=1 (incl. crash matrix) ==="
CCL_PMCHECK=1 CCL_LOCKCHECK=1 ctest --test-dir build --output-on-failure -j"$(nproc)"

# Quick crash-matrix profile: reruns just the crash-labelled tests so a
# crash-consistency regression is named explicitly in the CI log (DESIGN.md §9).
echo "=== crash: injection matrix ==="
ctest --test-dir build -L crash --output-on-failure

# Backend matrix: the whole suite re-run under each non-default persistence
# domain. CCL_BACKEND only rebinds devices whose config left backend at
# kAuto, so tests that pin a backend (or assert resolution defaults and
# clear the env themselves) keep their meaning.
echo "=== backend-matrix: ctest with CCL_BACKEND=eadr ==="
CCL_BACKEND=eadr ctest --test-dir build --output-on-failure -j"$(nproc)"
echo "=== backend-matrix: ctest with CCL_BACKEND=cxl ==="
CCL_BACKEND=cxl ctest --test-dir build --output-on-failure -j"$(nproc)"

# Service front-end: socket pinning, partition coverage, admission-control
# shedding, epoch-series determinism, and the crash matrix over an open-loop
# run (no acked-then-lost writes) as an explicitly named step (DESIGN.md §15).
echo "=== service: ctest -R service ==="
ctest --test-dir build -R service --output-on-failure

# Determinism gate: the paper-figure benches must produce bit-identical
# virtual-metric tails and dumps across back-to-back runs — including
# cclbtree rows with background GC on (DESIGN.md §10), the backend-matrix
# sweep across ADR/eADR/CXL (DESIGN.md §14), fig17's multi-worker recovery
# and CCL-Hash's ablation — and every dump's pmcheck and lockcheck verdicts
# must be clean (`pmctl check` exit 0), fig14's three GC-mode dumps and
# fig10's many-worker rows included. Small scale: the property being checked
# is exact equality and zero violations, not the metric values themselves.
echo "=== determinism: fig03/fig10/fig14/backend_matrix/service_tail/fig17/extra_hash run twice, tails + dumps diffed, pmctl check gated (pmcheck + lockcheck on) ==="
CCL_PMCHECK=1 CCL_LOCKCHECK=1 CCL_BENCH_SCALE="${CCL_BENCH_SCALE:-60000}" \
  ./run_benches.sh --determinism 'fig03|fig10|fig14|backend_matrix|service_tail|fig17|extra_hash'

# Metrics determinism: the metrics suite (bit-identical epoch series for
# identical RunConfigs including a background-GC run, epoch tiling over both
# front ends, percentile oracle) re-run as a named step.
echo "=== metrics-determinism: ctest -R metrics ==="
ctest --test-dir build -R metrics --output-on-failure

# Bench regression gate: self-test first (a seeded regression must be
# detected), then fresh results staged at the baselines' scale/filter and
# compared — virtual metrics exactly, wall time within the noise band.
echo "=== bench-gate: bench_gate.py self-test + staged vs baselines ==="
python3 tools/bench_gate.py --self-test
GATE_STAGE_DIR="$(mktemp -d)"
trap 'rm -rf "${GATE_STAGE_DIR}"' EXIT
./run_benches.sh --gate-stage "${GATE_STAGE_DIR}"
python3 tools/bench_gate.py --staged "${GATE_STAGE_DIR}"

tools/sanitize.sh asan "${SANITIZE_FILTER}|index_conformance"
tools/sanitize.sh tsan "${SANITIZE_FILTER}"

echo "=== ci: ALL OK ==="
