#!/usr/bin/env bash
# Trace-artifact integration check, registered with ctest as
# `trace_determinism`:
#   1. run the fastest tracing-enabled bench (bench_e4_ring_fairness)
#      twice with MOBIDIST_TRACE_DIR pointed at two fresh temp dirs,
#   2. validate every exported JSONL stream with the offline trace_check
#      tool (re-runs all obs checkers outside the producing process),
#   3. require the two same-seed runs to be byte-identical, artifact by
#      artifact (JSONL and Chrome trace alike),
#   4. delete one `send` line from a trace and require trace_check to
#      exit 1 naming the id break (a gap must never pass as eviction).
set -euo pipefail

build_dir=${1:?usage: run_trace_check.sh <build-dir>}
bench="$build_dir/bench/bench_e4_ring_fairness"
checker="$build_dir/tools/trace_check"
for bin in "$bench" "$checker"; do
  if [ ! -x "$bin" ]; then
    echo "run_trace_check: missing binary $bin (build first)" >&2
    exit 1
  fi
done

dir_a=$(mktemp -d)
dir_b=$(mktemp -d)
trap 'rm -rf "$dir_a" "$dir_b"' EXIT

MOBIDIST_BENCH_DIR="$dir_a" MOBIDIST_TRACE_DIR="$dir_a" "$bench" > /dev/null
MOBIDIST_BENCH_DIR="$dir_b" MOBIDIST_TRACE_DIR="$dir_b" "$bench" > /dev/null

count=0
for trace in "$dir_a"/TRACE_*.jsonl; do
  "$checker" "$trace" > /dev/null
  count=$((count + 1))
done
if [ "$count" -eq 0 ]; then
  echo "run_trace_check: bench produced no JSONL traces" >&2
  exit 1
fi

for artifact in "$dir_a"/TRACE_*; do
  cmp "$artifact" "$dir_b/$(basename "$artifact")"
done

# Deleting the first line only shortens the retained prefix, so delete
# the first send after it.
trace=$(ls "$dir_a"/TRACE_*.jsonl | head -n 1)
line=$(awk 'NR > 1 && /"kind":"send"/ { print NR; exit }' "$trace")
if [ -z "$line" ]; then
  echo "run_trace_check: $(basename "$trace") has no send to delete" >&2
  exit 1
fi
sed "${line}d" "$trace" > "$dir_b/gap.jsonl"
status=0
output=$("$checker" "$dir_b/gap.jsonl" 2>&1) || status=$?
if [ "$status" -ne 1 ] || ! grep -q "event_ids" <<< "$output"; then
  echo "run_trace_check: deleting line $line of $(basename "$trace") was not reported" \
       "as an id break (exit $status)" >&2
  echo "$output" >&2
  exit 1
fi

echo "run_trace_check: $count JSONL streams validated; same-seed artifacts byte-identical;" \
     "a deleted send line fails as an id break"
