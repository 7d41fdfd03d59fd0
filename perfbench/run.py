#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The binary is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Each trial is
one fresh process that runs the workload once, from set-up to its output
checks; trials repeat, with the same seed, for about S seconds. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json: virtual-time
metrics (identical in every trial, which is checked) and the median of each
host metric over the trials. --trace 1 alternates untraced and traced trials
and reports the per_layer metrics from the traced ones, except
host_ns_per_op, which is the untraced median (the base of
trace.overhead_ratio). A human-readable table goes to standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Trials must end this long after the build, so a hung trial cannot hold
# the run past its time limit.
TRIALS_DEADLINE_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def child_env():
    # The workloads are defined on the defaults: no CCL_* override (backend,
    # metrics or trace dumps, checkers) may leak in from the caller.
    return {k: v for k, v in os.environ.items() if not k.startswith("CCL_")}


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def run_trial(binary, workload, seed, traced, deadline):
    cmd = [binary, "trial", "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=child_env(), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("trial timed out: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("trial failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def virtual_mismatches(trials, what):
    """Names of virtual metrics whose value differs between any two trials."""
    bad = []
    first = trials[0]["metrics"]
    for trial in trials[1:]:
        for name, m in trial["metrics"].items():
            if m["clock"] == "virtual" and name in first and first[name]["value"] != m["value"]:
                bad.append("%s (%s: %r vs %r)" % (name, what, first[name]["value"], m["value"]))
    return bad


def reading(trials, name):
    """A metric over trials: the shared value of a virtual metric, the median
    of a host one; None when the trials do not report it."""
    values = [t["metrics"][name]["value"] for t in trials if name in t["metrics"]]
    if not values:
        return None
    if trials[0]["metrics"][name]["clock"] == "virtual":
        return values[0]
    return statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    binary = build()
    deadline = time.monotonic() + TRIALS_DEADLINE_S
    try:
        selftest = subprocess.run([binary, "selftest"], stdout=sys.stderr, stderr=sys.stderr,
                                  env=child_env(), timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        fail("benchmark self-test timed out")
    if selftest.returncode != 0:
        fail("benchmark self-test failed")

    # Rounds of one untraced trial (and, with --trace 1, one traced trial)
    # until the next round would overrun the time budget.
    kinds = [False, True] if args.trace else [False]
    trials = {False: [], True: []}
    start = time.monotonic()
    rounds = 0
    while True:
        for traced in kinds:
            trials[traced].append(run_trial(binary, args.workload, args.seed, traced, deadline))
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > args.seconds:
            break

    everything = trials[False] + trials[True]
    errors = []
    for trial in everything:
        errors += trial["errors"]
        for name, m in trial["metrics"].items():
            if units.get(name) != m["unit"]:
                fail("metric %s (%s) is not in BENCHMARK.json with that unit" % (name, m["unit"]))
    errors += virtual_mismatches(trials[False], "untraced trials")
    if args.trace:
        errors += virtual_mismatches(trials[True], "traced trials")
        errors += virtual_mismatches([trials[False][0], trials[True][0]], "untraced vs traced")
    failed = max(t["failed"] for t in everything)
    attempted = trials[False][0]["attempted"]

    metrics = {}
    if args.trace:
        untraced = reading(trials[False], "host_ns_per_op")
        traced = reading(trials[True], "host_ns_per_op")
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_ratio":
                value = traced / untraced - 1.0
            elif m["name"] == "failed_op_ratio":
                value = failed / attempted
            elif m["name"] == "host_ns_per_op":
                value = untraced
            else:
                value = reading(trials[True], m["name"])
                # A layer this workload does not exercise reads 0.
                value = 0.0 if value is None else value
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            value = reading(trials[False], m["name"])
            if value is None:
                fail("workload did not report " + m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    for error in errors:
        print("perfbench: check failed: " + error, file=sys.stderr)
    print("perfbench: %s seed %d, %d round(s) in %.1f s" %
          (args.workload, args.seed, rounds, time.monotonic() - start), file=sys.stderr)
    for name, m in metrics.items():
        print("  %-42s %16.6g %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
