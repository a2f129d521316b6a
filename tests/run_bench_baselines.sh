#!/usr/bin/env bash
# Bench-baseline gate, registered with ctest as `bench_baselines`. Runs
# the formation (E9), path-reversal (E10) and mobility (E11) benches
# into a temporary directory and requires each artifact's deterministic
# body — everything before its trailing "provenance" object, which
# holds host timing and the git sha — to be byte-identical to the
# committed bench/baselines/BENCH_<name>.json. E8's BENCH_scale.json is
# not compared here: its shard-scaling gate is a host-time measurement.
#
# Regenerating a baseline (only after an intentional behavior change):
#   MOBIDIST_BENCH_DIR=bench/baselines/ build/bench/bench_e9_formation
set -euo pipefail

source_dir=${1:?usage: run_bench_baselines.sh <source-dir> <bench-binary>...}
shift
if [ "$#" -eq 0 ]; then
  echo "run_bench_baselines: no bench binaries given" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The body ends where `,"provenance":` starts; every artifact is one line.
body() { sed 's/,"provenance":.*$//' "$1"; }

status=0
for bin in "$@"; do
  if [ ! -x "$bin" ]; then
    echo "run_bench_baselines: missing binary $bin (build first)" >&2
    exit 1
  fi
  out="$tmp/$(basename "$bin")"
  mkdir -p "$out"
  if ! (cd "$out" && MOBIDIST_BENCH_DIR="$out/" MOBIDIST_TRACE_DIR="" "$bin" > "$out/stdout.txt" 2>&1); then
    echo "run_bench_baselines: $(basename "$bin") exited non-zero:" >&2
    tail -5 "$out/stdout.txt" >&2
    status=1
    continue
  fi
  found=0
  for artifact in "$out"/BENCH_*.json; do
    [ -f "$artifact" ] || continue
    found=1
    name=$(basename "$artifact")
    baseline="$source_dir/bench/baselines/$name"
    if [ ! -f "$baseline" ]; then
      echo "run_bench_baselines: no committed baseline bench/baselines/$name" >&2
      status=1
      continue
    fi
    if ! grep -q ',"provenance":' "$artifact"; then
      echo "run_bench_baselines: $name has no provenance object to strip" >&2
      status=1
      continue
    fi
    if [ "$(body "$artifact")" != "$(body "$baseline")" ]; then
      echo "run_bench_baselines: $name body differs from bench/baselines/$name:" >&2
      diff <(body "$baseline" | tr ',' '\n') <(body "$artifact" | tr ',' '\n') | head -6 >&2 || true
      status=1
    fi
  done
  if [ "$found" -eq 0 ]; then
    echo "run_bench_baselines: $(basename "$bin") wrote no BENCH_*.json" >&2
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "run_bench_baselines: bench bodies no longer match the committed baselines" >&2
  exit "$status"
fi

echo "run_bench_baselines: every bench body byte-identical to its committed baseline"
