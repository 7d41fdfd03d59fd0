#!/usr/bin/env python3
"""Benchmark regression gate: freshly staged BENCH_*.json vs bench/baselines/.

The baselines directory holds checked-in benchmark result JSONs (google-
benchmark format, plus optionally the bench_pmsim_hotpath schema) generated
by `run_benches.sh --baseline-update` at the scale/filter recorded in its
MANIFEST. The gate re-stages the same benches (run_benches.sh --gate-stage)
and compares entry-by-entry:

  * virtual metrics (every user counter: Mops, XBI, CLI, mwB_*, virt_ms, ...)
    must match the baseline EXACTLY — they are derived from pmsim virtual
    time and the sequential driver schedule, so any drift is a real behavior
    change, not noise (DESIGN.md s10);
  * wall-clock fields (real_time, cpu_time, wall_ms, mops_wall) may regress
    only within a noise band (default: 1.0 = 2x slower fails, and only when
    the absolute slowdown also exceeds --wall-floor-ms);
  * entries/files present on one side but not the other fail the gate
    (a new bench or renamed case needs `run_benches.sh --baseline-update`).

Usage:
  tools/bench_gate.py --staged DIR [--baselines DIR] [--wall-band F]
  tools/bench_gate.py --self-test
"""
import argparse
import glob
import json
import os
import sys
import tempfile

DEFAULT_BASELINES = os.path.join(os.path.dirname(__file__), "..", "bench", "baselines")

# Wall-clock fields: banded, never exact. Everything else numeric is virtual.
# summarize_benches.py --tail drops the same keys from determinism tails.
WALL_KEYS = {"real_time", "cpu_time", "wall_ms", "mops_wall"}

# google-benchmark bookkeeping that says nothing about behavior.
SKIP_KEYS = {
    "family_index", "per_family_instance_index", "run_name", "run_type",
    "repetitions", "repetition_index", "iterations", "time_unit", "threads",
}


def read_manifest(baselines_dir):
    """Parses MANIFEST key=value lines; returns a dict (possibly empty)."""
    manifest = {}
    path = os.path.join(baselines_dir, "MANIFEST")
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#") or "=" not in line:
                    continue
                key, _, value = line.partition("=")
                manifest[key.strip()] = value.strip()
    return manifest


def entries_by_name(data, path):
    """Returns {case_name: {field: value}} for either supported schema."""
    if isinstance(data, dict) and data.get("bench") == "pmsim_hotpath":
        out = {}
        for scenario in data.get("scenarios", []):
            out[scenario["name"]] = {
                k: v for k, v in scenario.items() if k != "name"
            }
        return out
    if isinstance(data, dict) and "benchmarks" in data:
        out = {}
        for entry in data["benchmarks"]:
            out[entry["name"]] = {
                k: v for k, v in entry.items()
                if k != "name" and k not in SKIP_KEYS
            }
        return out
    raise ValueError(f"{path}: unrecognized results schema")


def compare_case(name, base, staged, wall_band, wall_floor_ms, problems):
    for key in sorted(set(base) | set(staged)):
        if key not in base:
            problems.append(f"{name}: new field {key!r} absent from baseline")
            continue
        if key not in staged:
            problems.append(f"{name}: field {key!r} missing from staged run")
            continue
        bval, sval = base[key], staged[key]
        if not isinstance(bval, (int, float)) or not isinstance(sval, (int, float)):
            if bval != sval:
                problems.append(f"{name}: {key} changed {bval!r} -> {sval!r}")
            continue
        if key in WALL_KEYS:
            # Only a *slowdown* is a regression, and only when it is both
            # relatively outside the band and absolutely non-trivial (tiny
            # wall times are pure scheduler noise). mops_wall is a rate, so
            # the regression direction flips.
            if key == "mops_wall":
                slow = bval > 0 and sval < bval / (1.0 + wall_band)
                abs_ok = True  # rate field: band alone decides
            else:
                slow = sval > bval * (1.0 + wall_band)
                abs_ok = (sval - bval) > wall_floor_ms
            if slow and abs_ok:
                problems.append(
                    f"{name}: wall regression {key} {bval:.3f} -> {sval:.3f} "
                    f"(band {wall_band:.2f})")
        else:
            if bval != sval:
                problems.append(
                    f"{name}: VIRTUAL metric {key} changed {bval!r} -> {sval!r} "
                    "(virtual metrics must match baselines exactly; if the "
                    "change is intended, run ./run_benches.sh --baseline-update)")


def bench_files(directory):
    return {os.path.basename(p) for p in glob.glob(os.path.join(directory, "BENCH_*.json"))}


def compare_dirs(baselines_dir, staged_dir, wall_band, wall_floor_ms):
    """Returns a list of problem strings (empty = gate passes)."""
    problems = []
    baseline_files = bench_files(baselines_dir)
    if not baseline_files:
        return [f"no BENCH_*.json baselines in {baselines_dir}"]
    staged_files = bench_files(staged_dir)
    for fname in sorted(baseline_files | staged_files):
        base_path = os.path.join(baselines_dir, fname)
        staged_path = os.path.join(staged_dir, fname)
        if fname not in staged_files:
            problems.append(f"{fname}: staged run produced no such file")
            continue
        if fname not in baseline_files:
            problems.append(f"{fname}: staged file has no baseline "
                            "(run ./run_benches.sh --baseline-update)")
            continue
        try:
            with open(base_path, encoding="utf-8") as f:
                base = entries_by_name(json.load(f), base_path)
            with open(staged_path, encoding="utf-8") as f:
                staged = entries_by_name(json.load(f), staged_path)
        except (ValueError, KeyError, json.JSONDecodeError) as e:
            problems.append(f"{fname}: {e}")
            continue
        for name in sorted(set(base) | set(staged)):
            if name not in staged:
                problems.append(f"{fname}: case {name!r} missing from staged run")
            elif name not in base:
                problems.append(f"{fname}: case {name!r} has no baseline "
                                "(run ./run_benches.sh --baseline-update)")
            else:
                compare_case(f"{fname}:{name}", base[name], staged[name],
                             wall_band, wall_floor_ms, problems)
    return problems


# ---------------------------------------------------------------------------
# Self-test: seed a fake baseline + staged pair per scenario and assert the
# gate's verdict, including that a seeded regression IS detected.

def _gb_file(mops, xbi, real_time):
    return {
        "context": {"host_name": "selftest"},
        "benchmarks": [{
            "name": "fig03/cclbtree/iterations:1",
            "run_name": "fig03/cclbtree/iterations:1",
            "run_type": "iteration",
            "iterations": 1,
            "real_time": real_time,
            "cpu_time": real_time,
            "time_unit": "ms",
            "Mops": mops,
            "XBI": xbi,
            "mwB_leaf": 123456.0,
        }],
    }


def _pmsim_file(wall_ms, heap_allocs):
    return {
        "bench": "pmsim_hotpath",
        "scenarios": [{
            "name": "flush_heavy_1t", "threads": 1, "ops": 1000,
            "wall_ms": wall_ms, "mops_wall": 1000.0 / (wall_ms * 1e3),
            "heap_allocs_measured": heap_allocs,
        }],
    }


def self_test():
    cases = [
        # (description, baseline json, staged json or [(file name, json)],
        #  expect_pass)
        ("identical results pass",
         _gb_file(3.5, 17.3, 240.0), _gb_file(3.5, 17.3, 240.0), True),
        ("virtual metric drift detected",
         _gb_file(3.5, 17.3, 240.0), _gb_file(3.5, 17.4, 240.0), False),
        ("wall regression beyond band detected",
         _gb_file(3.5, 17.3, 240.0), _gb_file(3.5, 17.3, 900.0), False),
        ("wall noise within band tolerated",
         _gb_file(3.5, 17.3, 240.0), _gb_file(3.5, 17.3, 310.0), True),
        ("wall speedup always tolerated",
         _gb_file(3.5, 17.3, 240.0), _gb_file(3.5, 17.3, 60.0), True),
        ("pmsim heap_allocs drift detected",
         _pmsim_file(200.0, 0), _pmsim_file(205.0, 3), False),
        ("pmsim wall noise tolerated",
         _pmsim_file(200.0, 0), _pmsim_file(260.0, 0), True),
        ("missing staged file detected",
         _gb_file(3.5, 17.3, 240.0), None, False),
        ("staged file without baseline detected",
         _gb_file(3.5, 17.3, 240.0), [("BENCH_selftest.json", _gb_file(3.5, 17.3, 240.0)),
                                      ("BENCH_new.json", _gb_file(3.5, 17.3, 240.0))], False),
    ]
    failures = []
    for desc, base, staged, expect_pass in cases:
        with tempfile.TemporaryDirectory(prefix="bench_gate_selftest_") as tmp:
            bdir = os.path.join(tmp, "baselines")
            sdir = os.path.join(tmp, "staged")
            os.makedirs(bdir)
            os.makedirs(sdir)
            with open(os.path.join(bdir, "BENCH_selftest.json"), "w",
                      encoding="utf-8") as f:
                json.dump(base, f)
            if not isinstance(staged, list):
                staged = [("BENCH_selftest.json", staged)]
            for name, data in staged:
                if data is not None:
                    with open(os.path.join(sdir, name), "w", encoding="utf-8") as f:
                        json.dump(data, f)
            problems = compare_dirs(bdir, sdir, wall_band=1.0, wall_floor_ms=50.0)
            if bool(problems) == expect_pass:
                verdict = "passed" if not problems else f"failed ({problems[0]})"
                failures.append(f"{desc}: gate {verdict}, expected "
                                f"{'pass' if expect_pass else 'fail'}")
    if failures:
        print("bench_gate self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"bench_gate self-test OK ({len(cases)} scenarios)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--staged", help="directory with freshly staged BENCH_*.json")
    parser.add_argument("--baselines", default=DEFAULT_BASELINES)
    parser.add_argument("--wall-band", type=float, default=1.0,
                        help="allowed fractional wall-time slowdown (1.0 = 2x)")
    parser.add_argument("--wall-floor-ms", type=float, default=50.0,
                        help="absolute slowdown below this is never flagged")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.staged:
        parser.error("--staged DIR is required (or use --self-test)")
    baselines = os.path.abspath(args.baselines)
    manifest = read_manifest(baselines)
    if manifest:
        print(f"bench_gate: baselines generated at scale={manifest.get('scale', '?')} "
              f"filter={manifest.get('filter', '?')}")
    problems = compare_dirs(baselines, os.path.abspath(args.staged),
                            args.wall_band, args.wall_floor_ms)
    if problems:
        print(f"bench_gate: {len(problems)} regression(s) vs {baselines}:")
        for p in problems:
            print(f"  {p}")
        return 1
    print("bench_gate: OK (virtual metrics exact, wall within band)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
