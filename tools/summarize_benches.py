#!/usr/bin/env python3
"""Summarize bench_output.txt into per-experiment tables.

Usage: tools/summarize_benches.py [bench_output.txt]
       tools/summarize_benches.py --check FILE.json [FILE.json ...]
       tools/summarize_benches.py --tail FILE.json

Default mode parses google-benchmark console rows of the form
    fig10/insert/cclbtree/threads:48/iterations:1  ... Mops=6.97 XBI=8.99 ...
and prints one aligned table per experiment prefix (fig02, fig03, ...,
tab1-3, extra_*), with the counters as columns.

--check validates machine-readable BENCH_*.json files (used by
run_benches.sh to refuse partial/corrupt results): each file must be either
google-benchmark JSON ("context" + non-empty "benchmarks", every entry
named) or the bench_pmsim_hotpath schema ("bench": "pmsim_hotpath" +
non-empty "scenarios" with the expected numeric fields). Exits non-zero on
the first invalid file.

--tail extracts the deterministic "metric tail" of one bench's
google-benchmark JSON (--benchmark_out): one line per row with every field
at full (repr) precision, except the wall-clock fields tools/bench_gate.py
bands (WALL_KEYS). Two runs of the same bench must produce byte-identical
--tail output (the driver determinism contract, DESIGN.md §10);
run_benches.sh --determinism diffs them.
"""
import json
import re
import sys
from collections import defaultdict

from bench_gate import WALL_KEYS, entries_by_name

ROW = re.compile(
    r"^(?P<name>(fig|tab|extra|backend|service)\w*/\S+?)/iterations:1\s+(?P<rest>.*)$")
COUNTER = re.compile(r"(\w+)=([-\d.keM]+)")


def parse_value(text: str) -> float:
    mult = 1.0
    if text.endswith("k"):
        mult, text = 1e3, text[:-1]
    elif text.endswith("M"):
        mult, text = 1e6, text[:-1]
    try:
        return float(text) * mult
    except ValueError:
        return float("nan")


def check_file(path: str) -> str | None:
    """Returns an error string if the file is not a valid results JSON."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return f"unreadable or malformed JSON: {exc}"
    if not isinstance(data, dict):
        return "top-level value is not an object"
    if data.get("bench") == "pmsim_hotpath":
        scenarios = data.get("scenarios")
        if not isinstance(scenarios, list) or not scenarios:
            return "pmsim_hotpath schema: missing/empty 'scenarios'"
        required = ("name", "threads", "ops", "wall_ms", "mops_wall",
                    "heap_allocs_measured")
        for i, row in enumerate(scenarios):
            if not isinstance(row, dict):
                return f"scenario #{i} is not an object"
            missing = [key for key in required if key not in row]
            if missing:
                return f"scenario #{i} missing fields: {', '.join(missing)}"
        return None
    if "context" in data:
        benchmarks = data.get("benchmarks")
        if not isinstance(benchmarks, list) or not benchmarks:
            return "google-benchmark schema: missing/empty 'benchmarks'"
        for i, row in enumerate(benchmarks):
            if not isinstance(row, dict) or "name" not in row:
                return f"benchmark #{i} has no 'name'"
        return None
    return "unrecognized schema (neither google-benchmark nor pmsim_hotpath)"


def run_check(paths: list[str]) -> int:
    if not paths:
        print("--check requires at least one file", file=sys.stderr)
        return 2
    for path in paths:
        error = check_file(path)
        if error is not None:
            print(f"summarize_benches.py: {path}: {error}", file=sys.stderr)
            return 1
    return 0


def run_tail(paths: list[str]) -> int:
    if len(paths) != 1:
        print("--tail requires exactly one file", file=sys.stderr)
        return 2
    try:
        with open(paths[0]) as handle:
            entries = entries_by_name(json.load(handle), paths[0])
    except (OSError, ValueError) as exc:
        print(f"summarize_benches.py: {paths[0]}: {exc}", file=sys.stderr)
        return 1
    if not entries:
        # An empty tail would make any determinism diff vacuously pass.
        print(f"summarize_benches.py: {paths[0]}: no metric rows found",
              file=sys.stderr)
        return 1
    for name, fields in entries.items():
        print(name + "  " + " ".join(f"{key}={value!r}"
                                     for key, value in sorted(fields.items())
                                     if key not in WALL_KEYS))
    return 0


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--check":
        return run_check(sys.argv[2:])
    if len(sys.argv) > 1 and sys.argv[1] == "--tail":
        return run_tail(sys.argv[2:])
    path = sys.argv[1] if len(sys.argv) > 1 else "bench_output.txt"
    experiments = defaultdict(list)  # prefix -> [(config, {counter: value})]
    with open(path) as handle:
        for line in handle:
            match = ROW.match(line.strip())
            if not match:
                continue
            name = match.group("name")
            prefix = name.split("/", 1)[0]
            config = name.split("/", 1)[1]
            counters = {key: parse_value(value)
                        for key, value in COUNTER.findall(match.group("rest"))}
            experiments[prefix].append((config, counters))

    for prefix in sorted(experiments):
        rows = experiments[prefix]
        columns = sorted({key for _, counters in rows for key in counters})
        print(f"\n=== {prefix} ===")
        header = f"{'config':<42}" + "".join(f"{col:>14}" for col in columns)
        print(header)
        for config, counters in rows:
            cells = "".join(
                f"{counters.get(col, float('nan')):>14.3f}" for col in columns)
            print(f"{config:<42}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
