#!/usr/bin/env python3
"""Repo-rule linter for the pmsim persistence API and determinism contract.

Everything in this repo runs against the simulated PM device, so raw x86
persistence intrinsics must never appear outside src/pmsim/ (where a real-PM
backend would live), and nothing inside a measured region may consult wall
clocks or nondeterministic RNGs — virtual-metric tails are diffed bit-for-bit
by the determinism CI gate (DESIGN.md s10).

Rules (R1-R8; see RULES below for the authoritative patterns):
  R1  raw persistence intrinsics (_mm_clwb/_mm_clflush*/_mm_sfence/...,
      __builtin_ia32_*, inline asm) outside src/pmsim/
  R2  wall-clock (std::chrono clocks, gettimeofday, sleep_for/sleep_until)
      in src/ or bench/; sleep_for/sleep_until additionally banned in tests
      (tests may use steady_clock deadlines to bound waits, never sleeps)
  R3  nondeterministic RNG (rand/srand/std::random_device/mt19937) in src/
      or bench/ — seeded cclbt::Rng (src/common/rng.h) is the sanctioned RNG
  R4  x86 intrinsic headers (<x86intrin.h>/<immintrin.h>/<emmintrin.h>)
      outside src/pmsim/ and src/common/simd.h
  R5  raw SIMD intrinsics (_mm_*/_mm256_*/_mm512_*) outside src/pmsim/ and
      src/common/simd.h — index code must go through the dispatched
      primitives in cclbt::simd so every probe keeps a scalar fallback and
      the CCL_SIMD override applies everywhere
  R6  wall-clock reads in metric-recording code (src/metrics/) outside the
      sanctioned clock shim src/metrics/clock.h — everything wall-derived
      must flow through metrics::WallNowNs() so it stays quarantined in the
      .pmmetrics summary record, never the deterministic epoch series
  R7  raw lock primitives (std::mutex/std::shared_mutex/pthread locks/
      atomic_flag spins/hand-rolled acquire-ordered CAS or exchange loops)
      outside src/common/lock.h — every lock must be a sync:: wrapper so the
      clang thread-safety annotations and the lockcheck observer (DESIGN.md
      s16) see every acquire; the checkers' internal CheckerMutex
      (src/pmsim/checker.h) opts out per line with `lint_pm_api: allow` (its
      serialization must stay invisible to the observer). One-shot relaxed
      exchange flags (crash_injector) do not match: the patterns require
      acquire ordering inside a spin loop.
  R8  thread creation (std::thread/std::jthread/std::async/pthread_create)
      in src/ — modeled workers step on pmsim::VirtualWorkers (DESIGN.md
      s10); tests/ and bench/ (wall-clock hot path) may start threads

Usage:
  tools/lint_pm_api.py [--root DIR]   # lint the tree, exit 1 on violations
  tools/lint_pm_api.py --self-test    # seed violations in a temp tree and
                                      # assert every rule fires, then make
                                      # sure the real tree passes
"""

import argparse
import os
import re
import sys
import tempfile

# Directories scanned, relative to the repo root.
SCAN_DIRS = ("src", "bench", "tests", "tools", "examples")

CXX_EXTS = (".cc", ".h")

# Wall-clock sleeps are banned everywhere: a sleeping test is a flaky test,
# and a sleeping bench perturbs the op stream. A test that must wait joins
# the threads it started, or polls state under a steady_clock *deadline*
# (R2 allows steady_clock in tests).
SLEEP_RE = re.compile(r"sleep_for|sleep_until|\busleep\s*\(|\bnanosleep\s*\(")

# Wall-clock reads; allowed in tests (deadlines) and in the two benches that
# measure real elapsed time by design (hotpath A/B, recovery wall time).
WALLCLOCK_RE = re.compile(
    r"std::chrono::(steady_clock|system_clock|high_resolution_clock)"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
)
WALLCLOCK_FILE_ALLOWLIST = {
    "bench/bench_pmsim_hotpath.cc",   # wall-clock A/B parity is the product
    "bench/bench_fig17_recovery.cc",  # recovery wall time is the figure
}

INTRINSIC_RE = re.compile(
    r"_mm_(clwb|clflush|clflushopt|sfence|mfence|stream_\w+)\s*\("
    r"|__builtin_ia32_\w+"
    r"|\b__asm__\b|\basm\s*(volatile)?\s*\("
)
INTRINSIC_HEADER_RE = re.compile(r'#\s*include\s*<(x86intrin|immintrin|emmintrin)\.h>')

# Any _mm*_ intrinsic call: _mm_, _mm256_, _mm512_. The persistence subset is
# R1 (banned even in src/common/simd.h); this rule fences off general SIMD.
SIMD_INTRINSIC_RE = re.compile(r"\b_mm\d*_\w+\s*\(")

# The one sanctioned home for SIMD outside the simulator (DESIGN.md s12).
SIMD_HOME = "src/common/simd.h"

# The one sanctioned wall-clock shim for metric recording (metrics::WallNowNs).
METRICS_CLOCK_HOME = "src/metrics/clock.h"

NONDET_RNG_RE = re.compile(
    r"std::random_device|std::mt19937|\bsrand\s*\(|[^_\w.]rand\s*\(\s*\)"
)

# Raw lock primitives: standard mutex types, pthread locks, atomic_flag
# spins, and hand-rolled lock loops (acquire-ordered exchange/CAS inside a
# while — a relaxed one-shot exchange or a relaxed CAS max-counter loop is
# not a lock and must not match).
RAW_LOCK_RE = re.compile(
    r"\bstd::(recursive_|timed_|recursive_timed_)?mutex\b"
    r"|\bstd::shared_(timed_)?mutex\b"
    r"|\bpthread_(mutex|rwlock|spin|cond)\w*"
    r"|\.test_and_set\s*\("
    r"|while\s*\(.*\.(exchange|compare_exchange_\w+)\s*\(.*memory_order_acquire"
)

# The one sanctioned home for lock primitives (DESIGN.md s16).
LOCK_HOME = "src/common/lock.h"

# Starting an OS thread (std::this_thread::yield does not match).
THREAD_CREATE_RE = re.compile(r"\bstd::j?thread\b|\bstd::async\b|\bpthread_create\s*\(")

# (rule, regex, predicate(relpath) -> bool applies, message)
RULES = [
    (
        "R1",
        INTRINSIC_RE,
        lambda p: not p.startswith("src/pmsim/"),
        "raw persistence intrinsic / inline asm outside src/pmsim/ "
        "(use pmsim::FlushLine/Fence/Persist)",
    ),
    (
        "R2",
        SLEEP_RE,
        lambda p: True,
        "wall-clock sleep (poll virtual state under a steady_clock deadline instead)",
    ),
    (
        "R2",
        WALLCLOCK_RE,
        lambda p: (
            p.startswith("src/")
            and not p.startswith("src/pmsim/")
            and p != METRICS_CLOCK_HOME
        )
        or (p.startswith("bench/") and p not in WALLCLOCK_FILE_ALLOWLIST),
        "wall-clock read in measured code (use pmsim virtual time)",
    ),
    (
        "R3",
        NONDET_RNG_RE,
        lambda p: p.startswith("src/") or p.startswith("bench/"),
        "nondeterministic RNG in measured code (use the seeded cclbt::Rng)",
    ),
    (
        "R4",
        INTRINSIC_HEADER_RE,
        lambda p: not p.startswith("src/pmsim/") and p != SIMD_HOME,
        "x86 intrinsic header outside src/pmsim/ and src/common/simd.h",
    ),
    (
        "R5",
        SIMD_INTRINSIC_RE,
        lambda p: not p.startswith("src/pmsim/") and p != SIMD_HOME,
        "raw SIMD intrinsic outside src/common/simd.h "
        "(add a dispatched primitive to cclbt::simd instead)",
    ),
    (
        "R6",
        WALLCLOCK_RE,
        lambda p: p.startswith("src/metrics/") and p != METRICS_CLOCK_HOME,
        "wall-clock read in metric recording outside the sanctioned shim "
        "src/metrics/clock.h (use metrics::WallNowNs)",
    ),
    (
        "R7",
        RAW_LOCK_RE,
        lambda p: p != LOCK_HOME,
        "raw lock primitive outside src/common/lock.h (use the annotated "
        "sync:: wrappers so thread-safety analysis and lockcheck see every "
        "acquire)",
    ),
    (
        "R8",
        THREAD_CREATE_RE,
        lambda p: p.startswith("src/"),
        "thread creation in src/ (step modeled workers on pmsim::VirtualWorkers)",
    ),
]

COMMENT_RE = re.compile(r"^\s*(//|\*)")


def lint_tree(root):
    """Returns a list of (relpath, lineno, rule, message) violations."""
    violations = []
    for scan_dir in SCAN_DIRS:
        top = os.path.join(root, scan_dir)
        for dirpath, _, filenames in os.walk(top):
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8", errors="replace") as f:
                    for lineno, line in enumerate(f, start=1):
                        if COMMENT_RE.match(line):
                            continue
                        if "lint_pm_api: allow" in line:
                            continue
                        for rule, pattern, applies, message in RULES:
                            if applies(rel) and pattern.search(line):
                                violations.append((rel, lineno, rule, message))
    return violations


# Each self-test case seeds one file and names the rule that must fire on it.
SELF_TEST_CASES = [
    ("src/core/bad_clwb.cc", "void f(char* p) { _mm_clwb(p); }\n", "R1"),
    ("bench/bad_asm.cc", 'void f() { __asm__ volatile("sfence"); }\n', "R1"),
    (
        "tests/bad_sleep.cc",
        "#include <thread>\nvoid f() { std::this_thread::sleep_for(std::chrono::seconds(1)); }\n",
        "R2",
    ),
    (
        "src/core/bad_clock.cc",
        "long f() { return std::chrono::steady_clock::now().time_since_epoch().count(); }\n",
        "R2",
    ),
    ("bench/bad_rng.cc", "#include <random>\nstd::mt19937 g;\n", "R3"),
    ("src/core/bad_header.cc", "#include <immintrin.h>\n", "R4"),
    (
        "src/core/bad_simd.cc",
        "int f(const char* p) { return _mm256_extract_epi8(_mm256_loadu_si256((const __m256i*)p), 0); }\n",
        "R5",
    ),
    # Wall-clock read in metric-recording code outside the sanctioned shim.
    (
        "src/metrics/bad_wall.cc",
        "long f() { return std::chrono::steady_clock::now().time_since_epoch().count(); }\n",
        "R6",
    ),
    # The sanctioned clock shim itself: neither R2 nor R6 may fire.
    (
        "src/metrics/clock.h",
        "long f() { return std::chrono::steady_clock::now().time_since_epoch().count(); }\n",
        None,
    ),
    # src/common/simd.h is the sanctioned SIMD home: R4/R5 must NOT fire.
    (
        "src/common/simd.h",
        "#include <immintrin.h>\nunsigned f(const char* p) { return _mm_movemask_epi8(_mm_loadu_si128((const __m128i*)p)); }\n",
        None,
    ),
    # pmsim is exempt from R1/R4: must NOT fire.
    ("src/pmsim/real_backend.cc", "#include <immintrin.h>\nvoid f(char* p) { _mm_clwb(p); }\n", None),
    # Annotated escape hatch: must NOT fire.
    ("src/core/annotated.cc", "void f() { __asm__(\"\"); }  // lint_pm_api: allow\n", None),
    # Raw std::mutex outside the sanctioned lock home.
    ("src/core/bad_mutex.cc", "#include <mutex>\nstd::mutex m;\n", "R7"),
    ("src/service/bad_rwlock.cc", "#include <shared_mutex>\nstd::shared_mutex m;\n", "R7"),
    ("src/core/bad_pthread.cc", "pthread_mutex_t m;\n", "R7"),
    (
        "src/kvindex/bad_flag_spin.cc",
        "#include <atomic>\nstd::atomic_flag f;\nvoid l() { while (f.test_and_set(std::memory_order_acquire)) {} }\n",
        "R7",
    ),
    # Hand-rolled TTAS: acquire-ordered exchange in a spin loop.
    (
        "src/core/bad_cas_lock.cc",
        "#include <atomic>\nvoid l(std::atomic<bool>& b) { while (b.exchange(true, std::memory_order_acquire)) {} }\n",
        "R7",
    ),
    # src/common/lock.h is the sanctioned lock home: R7 must NOT fire.
    (
        "src/common/lock.h",
        "#include <mutex>\nclass M { std::mutex mu_; };\n",
        None,
    ),
    # One-shot relaxed exchange flag (crash_injector idiom): not a lock.
    (
        "src/pmsim/ok_oneshot.cc",
        "#include <atomic>\nbool f(std::atomic<bool>& b) { return !b.exchange(true, std::memory_order_relaxed); }\n",
        None,
    ),
    # Checker-internal mutex behind the per-line escape: must NOT fire.
    (
        "src/pmsim/ok_checker_mu.cc",
        "#include <mutex>\nusing CheckerMutex = std::mutex;  // lint_pm_api: allow\n",
        None,
    ),
    # An OS thread under src/; yielding is not thread creation.
    ("src/core/bad_thread.cc", "void f() { std::thread t([] {}); t.join(); }\n", "R8"),
    ("src/core/ok_yield.cc", "void f() { std::this_thread::yield(); }\n", None),
]


def self_test(root):
    with tempfile.TemporaryDirectory(prefix="lint_pm_api_selftest_") as tmp:
        for rel, content, _ in SELF_TEST_CASES:
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        violations = lint_tree(tmp)
        by_file = {}
        for v in violations:
            by_file.setdefault(v[0], set()).add(v[2])
        failures = []
        for rel, _, want_rule in SELF_TEST_CASES:
            got = by_file.get(rel, set())
            # A seeded file may legitimately trip several rules (e.g. _mm_clwb
            # is both a persistence intrinsic and a SIMD intrinsic); the named
            # rule must be among them. None means no rule may fire at all.
            ok = (not got) if want_rule is None else (want_rule in got)
            if not ok:
                failures.append(f"{rel}: expected {want_rule}, linter reported {sorted(got)}")
        if failures:
            print("lint_pm_api self-test FAILED:")
            for f in failures:
                print(f"  {f}")
            return 1
    real = lint_tree(root)
    if real:
        print(f"lint_pm_api self-test FAILED: real tree has {len(real)} violation(s):")
        report(real)
        return 1
    print(f"lint_pm_api self-test OK ({len(SELF_TEST_CASES)} seeded cases, real tree clean)")
    return 0


def report(violations):
    for rel, lineno, rule, message in violations:
        print(f"{rel}:{lineno}: [{rule}] {message}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.join(os.path.dirname(__file__), ".."))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    if args.self_test:
        return self_test(root)
    violations = lint_tree(root)
    if violations:
        report(violations)
        print(f"lint_pm_api: {len(violations)} violation(s)")
        return 1
    print("lint_pm_api: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
