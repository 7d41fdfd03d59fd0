#!/bin/bash
# Runs every benchmark binary. Console output is appended to bench_output.txt
# and each binary's machine-readable results land in BENCH_<name>.json
# (google-benchmark JSON; bench_pmsim_hotpath keeps its own schema in
# BENCH_pmsim.json). Results are staged to a temp file and only moved into
# place after tools/summarize_benches.py --check accepts them, so a crashed
# or interrupted bench, or one that writes no JSON, fails this script loudly
# instead of leaving a partial/invalid BENCH_*.json behind.
#
#   ./run_benches.sh [--filter PATTERN] [--stage-to DIR]
#
# --filter restricts which bench binaries run (egrep over basenames);
# --stage-to redirects bench_output.txt and the BENCH_*.json artifacts into
# DIR instead of the repo root (used by the CI bench gate).
#
#   ./run_benches.sh --determinism [FILTER]
#
# runs each staged bench TWICE, each run writing its google-benchmark JSON,
# and diffs the virtual-metric tails (tools/summarize_benches.py --tail:
# every field of every row at full precision, minus the wall-clock ones):
# any difference is a violation of the driver determinism contract
# (DESIGN.md §10) and fails the script. Each run also gets CCL_METRICS set,
# so every .pmmetrics dump the bench emits is checked: every record but the
# summary (which holds wall-clock data) must be bit-identical across the two
# runs — epochs, stats and checker records alike —, and `pmctl series` must
# accept each dump (it exits non-zero if any epoch's per-component
# media-write bytes fail to sum to that epoch's windowed media_write_bytes).
# When CCL_PMCHECK or CCL_LOCKCHECK is 1, `pmctl check` must also exit 0 on
# every run-1 dump: 3 means checker violations, 2 means a checked run left
# no checker record. FILTER is an optional egrep pattern over binary names
# (default: every bench). bench_pmsim_hotpath is excluded — it measures host
# wall time by design. No bench_output.txt / BENCH_*.json artifacts are
# touched in this mode.
#
#   ./run_benches.sh --baseline-update
#
# regenerates the checked-in bench/baselines/ used by tools/bench_gate.py:
# re-stages the benches named by bench/baselines/MANIFEST (scale + filter;
# defaults are used when bootstrapping a missing MANIFEST), then replaces
# the baseline BENCH_*.json files and rewrites MANIFEST.
#
#   ./run_benches.sh --gate-stage DIR
#
# stages fresh results into DIR at the MANIFEST's scale/filter, for
# comparison by `tools/bench_gate.py --staged DIR` (the ci.sh bench-gate
# step).
set -u
cd "$(dirname "$0")"

BASELINE_DIR="bench/baselines"
DEFAULT_BASELINE_SCALE=60000
DEFAULT_BASELINE_FILTER='fig03|fig04|tab1_nbatch|service_tail|fig17|extra_hash|fig13'

fail() {
  echo "run_benches.sh: FAILED: $*" >&2
  exit 1
}

manifest_get() {  # manifest_get KEY DEFAULT
  local value=""
  if [ -f "${BASELINE_DIR}/MANIFEST" ]; then
    value="$(sed -n "s/^$1=//p" "${BASELINE_DIR}/MANIFEST" | head -n1)"
  fi
  echo "${value:-$2}"
}

run_determinism() {
  local filter="${1:-.}"
  local status=0 matched=0 total_dumps=0 checked=0 rc
  if [ "${CCL_PMCHECK:-}" = 1 ] || [ "${CCL_LOCKCHECK:-}" = 1 ]; then
    checked=1
  fi
  local json1 json2 tail1 tail2 mdir1 mdir2
  json1="$(mktemp)" && json2="$(mktemp)" && tail1="$(mktemp)" && tail2="$(mktemp)" \
    && mdir1="$(mktemp -d)" && mdir2="$(mktemp -d)" || fail "mktemp"
  trap 'rm -f "$json1" "$json2" "$tail1" "$tail2"; rm -rf "$mdir1" "$mdir2"' EXIT
  for b in build/bench/bench_*; do
    local name
    name="$(basename "$b")"
    [ "$name" = "bench_pmsim_hotpath" ] && continue  # wall-clock bench
    echo "$name" | grep -Eq "$filter" || continue
    matched=1
    rm -f "$mdir1"/*.pmmetrics "$mdir2"/*.pmmetrics
    CCL_METRICS="$mdir1/m" "$b" --benchmark_out="$json1" --benchmark_out_format=json \
      > /dev/null 2>&1 || fail "$name exited with status $? (run 1)"
    CCL_METRICS="$mdir2/m" "$b" --benchmark_out="$json2" --benchmark_out_format=json \
      > /dev/null 2>&1 || fail "$name exited with status $? (run 2)"
    tools/summarize_benches.py --tail "$json1" > "$tail1" \
      || fail "$name run 1 produced no metric tail"
    tools/summarize_benches.py --tail "$json2" > "$tail2" \
      || fail "$name run 2 produced no metric tail"
    if diff -u "$tail1" "$tail2"; then
      echo "determinism OK: ${name} ($(wc -l < "$tail1") metric rows bit-identical)"
    else
      echo "run_benches.sh: DETERMINISM VIOLATION in ${name} (diff above)" >&2
      status=1
    fi
    # Dump determinism: every .pmmetrics dump of run 1 must have a
    # bit-identical counterpart (every record but the summary, which is
    # wall-clock territory) in run 2, must satisfy the per-epoch
    # component-bytes sum invariant enforced by `pmctl series`, and in a
    # checked run must carry clean checker verdicts (`pmctl check`).
    local ndumps=0 bad=0 dump1 dump2 base
    for dump1 in "$mdir1"/*.pmmetrics; do
      [ -e "$dump1" ] || continue
      ndumps=$((ndumps + 1))
      base="$(basename "$dump1")"
      dump2="$mdir2/$base"
      if [ ! -f "$dump2" ]; then
        echo "run_benches.sh: DETERMINISM VIOLATION in ${name}: ${base} only emitted by run 1" >&2
        bad=1
        continue
      fi
      if ! diff -u <(grep -v '"type":"summary"' "$dump1") \
                   <(grep -v '"type":"summary"' "$dump2"); then
        echo "run_benches.sh: DETERMINISM VIOLATION in ${name} metrics series ${base} (diff above)" >&2
        bad=1
      fi
      if ! build/tools/pmctl series "$dump1" > /dev/null; then
        echo "run_benches.sh: ${name} ${base}: pmctl series rejected the dump (component-bytes sum violation?)" >&2
        bad=1
      fi
      if [ "$checked" = 1 ]; then
        build/tools/pmctl check "$dump1" > /dev/null
        rc=$?
        if [ "$rc" != 0 ]; then
          echo "run_benches.sh: ${name} ${base}: pmctl check exited ${rc} (3: checker violations; 2: the checked run left no checker record)" >&2
          bad=1
        fi
      fi
    done
    total_dumps=$((total_dumps + ndumps))
    if [ "$bad" = 1 ]; then
      status=1
    elif [ "$ndumps" -gt 0 ]; then
      echo "metrics determinism OK: ${name} (${ndumps} dumps bit-identical, component sums verified$([ "$checked" = 1 ] && echo ", checker verdicts clean"))"
    else
      echo "metrics: ${name} emitted no .pmmetrics dump (bench bypasses the measured phase)"
    fi
  done
  [ "$matched" = 1 ] || fail "--determinism filter '${filter}' matched no bench"
  [ "$total_dumps" -gt 0 ] \
    || fail "no bench emitted a .pmmetrics dump despite CCL_METRICS being set"
  [ "$status" = 0 ] || fail "determinism violations detected"
  echo "DETERMINISM_OK"
  exit 0
}

OUT_DIR="."
FILTER="."
while [ $# -gt 0 ]; do
  case "$1" in
    --determinism)
      run_determinism "${2:-.}"  # exits
      ;;
    --filter)
      FILTER="${2:?--filter needs an egrep pattern}"
      shift 2
      ;;
    --stage-to)
      OUT_DIR="${2:?--stage-to needs a directory}"
      mkdir -p "$OUT_DIR" || fail "cannot create ${OUT_DIR}"
      shift 2
      ;;
    --baseline-update)
      scale="$(manifest_get scale "$DEFAULT_BASELINE_SCALE")"
      bfilter="$(manifest_get filter "$DEFAULT_BASELINE_FILTER")"
      stage="$(mktemp -d)" || fail "mktemp"
      trap 'rm -rf "$stage"' EXIT
      CCL_BENCH_SCALE="$scale" ./run_benches.sh \
        --filter "$bfilter" --stage-to "$stage" \
        || fail "baseline staging run failed"
      mkdir -p "$BASELINE_DIR"
      rm -f "$BASELINE_DIR"/BENCH_*.json
      cp "$stage"/BENCH_*.json "$BASELINE_DIR"/ || fail "no staged BENCH_*.json to install"
      {
        echo "# Benchmark baselines for tools/bench_gate.py."
        echo "# Regenerate with: ./run_benches.sh --baseline-update"
        echo "scale=${scale}"
        echo "filter=${bfilter}"
      } > "$BASELINE_DIR/MANIFEST"
      echo "BASELINES_UPDATED ($(ls "$BASELINE_DIR"/BENCH_*.json | wc -l) files, scale=${scale}, filter=${bfilter})"
      exit 0
      ;;
    --gate-stage)
      dir="${2:?--gate-stage needs a directory}"
      scale="$(manifest_get scale "$DEFAULT_BASELINE_SCALE")"
      bfilter="$(manifest_get filter "$DEFAULT_BASELINE_FILTER")"
      CCL_BENCH_SCALE="$scale" exec ./run_benches.sh \
        --filter "$bfilter" --stage-to "$dir"
      ;;
    *)
      fail "unknown argument: $1"
      ;;
  esac
done

: > "$OUT_DIR/bench_output.txt"
matched=0
for b in build/bench/bench_*; do
  name="$(basename "$b")"
  echo "$name" | grep -Eq "$FILTER" || continue
  matched=1
  echo "=== ${name} ===" >> "$OUT_DIR/bench_output.txt"
  if [ "$name" = "bench_pmsim_hotpath" ]; then
    json="BENCH_pmsim.json"   # established artifact name (see CHANGES.md)
  else
    json="BENCH_${name#bench_}.json"
  fi
  tmp="$(mktemp "$OUT_DIR/tmp.${name}.XXXXXX")" || fail "mktemp"
  trap 'rm -f "$tmp"' EXIT
  if [ "$name" = "bench_pmsim_hotpath" ]; then
    "$b" "$tmp" >> "$OUT_DIR/bench_output.txt" 2>&1 \
      || { rc=$?; rm -f "$tmp"; fail "$name exited with status $rc"; }
  else
    "$b" --benchmark_out="$tmp" --benchmark_out_format=json >> "$OUT_DIR/bench_output.txt" 2>&1 \
      || { rc=$?; rm -f "$tmp"; fail "$name exited with status $rc"; }
  fi
  tools/summarize_benches.py --check "$tmp" \
    || { rm -f "$tmp"; fail "$name wrote invalid results (no partial ${json} kept)"; }
  mv "$tmp" "$OUT_DIR/$json" || { rm -f "$tmp"; fail "cannot move results into ${json}"; }
  trap - EXIT
  echo "" >> "$OUT_DIR/bench_output.txt"
done
[ "$matched" = 1 ] || fail "--filter '${FILTER}' matched no bench"
echo "ALL_BENCHES_DONE" >> "$OUT_DIR/bench_output.txt"
echo "ALL_BENCHES_DONE"
