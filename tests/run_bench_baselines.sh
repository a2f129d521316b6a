#!/usr/bin/env bash
# Bench-baseline gate, registered with ctest as `bench_baselines`. Runs
# the formation (E9), path-reversal (E10) and mobility (E11) benches
# into a temporary directory and requires each artifact's deterministic
# body — everything before its trailing "provenance" object, which
# holds host timing and the git sha — to be byte-identical to the
# committed bench/baselines/BENCH_<name>.json. E8's BENCH_scale.json is
# not compared here: its shard-scaling gate is a host-time measurement.
# The first bench also runs with MOBIDIST_JOBS set: 2 must give the same
# body, -1 and "two" must be rejected.
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
# run_bench <binary> <out-dir> [VAR=value...]: one bench run, artifact and
# stdout in <out-dir>; its exit status is the bench's.
run_bench() {
  local bin=$1 out=$2
  shift 2
  mkdir -p "$out"
  (cd "$out" && env MOBIDIST_BENCH_DIR="$out/" MOBIDIST_TRACE_DIR="" "$@" "$bin" \
    > "$out/stdout.txt" 2>&1)
}
# check_bodies <binary> <out-dir>: every artifact in <out-dir> must match
# its committed baseline; sets `status` to 1 otherwise.
check_bodies() {
  local bin=$1 out=$2 found=0 artifact name baseline
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
}

for bin in "$@"; do
  if [ ! -x "$bin" ]; then
    echo "run_bench_baselines: missing binary $bin (build first)" >&2
    exit 1
  fi
  out="$tmp/$(basename "$bin")"
  if ! run_bench "$bin" "$out"; then
    echo "run_bench_baselines: $(basename "$bin") exited non-zero:" >&2
    tail -5 "$out/stdout.txt" >&2
    status=1
    continue
  fi
  check_bodies "$bin" "$out"
done

# MOBIDIST_JOBS is read like mobidist_sweep's --jobs: a whole number in
# [0, 1024]. A bad value must stop the bench with an error naming the
# variable and write no artifact; a good one changes no body.
first=$1
for value in -1 two; do
  out="$tmp/jobs_$value"
  if run_bench "$first" "$out" MOBIDIST_JOBS="$value" ||
     ! grep -qF MOBIDIST_JOBS "$out/stdout.txt" ||
     compgen -G "$out/BENCH_*.json" > /dev/null; then
    echo "run_bench_baselines: MOBIDIST_JOBS=$value was not rejected naming the variable:" >&2
    tail -5 "$out/stdout.txt" >&2
    status=1
  fi
done
out="$tmp/jobs_2"
if ! run_bench "$first" "$out" MOBIDIST_JOBS=2; then
  echo "run_bench_baselines: MOBIDIST_JOBS=2 exited non-zero:" >&2
  tail -5 "$out/stdout.txt" >&2
  status=1
else
  check_bodies "$first" "$out"
fi
if [ "$status" -ne 0 ]; then
  echo "run_bench_baselines: a bench failed, or its body no longer matches its baseline" >&2
  exit "$status"
fi

echo "run_bench_baselines: every bench body byte-identical to its committed baseline;" \
  "bad MOBIDIST_JOBS values rejected"
