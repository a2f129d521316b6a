#!/usr/bin/env bash
# Sweep-runner smoke test, registered with ctest as `sweep_smoke`
# (label: sweep-smoke). Exercises the full CLI path on a tiny grid:
#   1. run scenarios/mutex_smoke.json with --jobs 1 and --jobs 4 in
#      --deterministic mode and require byte-identical artifacts — the
#      pinned thread-count-independence guarantee;
#   2. gate a fresh run against the jobs=1 artifact as baseline (must
#      pass: exit 0);
#   3. tamper one metric mean in the baseline and require the gate to
#      fail with the regression exit code (3) — the deliberate-fail leg;
#   4. require malformed numeric flags and an out-of-range scenario
#      integer to fail with the usage exit code (1), naming the culprit.
set -euo pipefail

build_dir=${1:?usage: run_sweep_smoke.sh <build-dir> <scenario.json>}
scenario=${2:?usage: run_sweep_smoke.sh <build-dir> <scenario.json>}
cli="$build_dir/tools/mobidist_sweep"
if [ ! -x "$cli" ]; then
  echo "run_sweep_smoke: missing binary $cli (build first)" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$cli" --scenario "$scenario" --jobs 1 --deterministic --out "$tmp/jobs1.json" > /dev/null
"$cli" --scenario "$scenario" --jobs 4 --deterministic --out "$tmp/jobs4.json" > /dev/null
cmp "$tmp/jobs1.json" "$tmp/jobs4.json"

# Shard-count independence on the same artifact: the --shards axis must
# never change the deterministic body (the full trace-level sweep over
# every scenario lives in run_shard_independence.sh).
for shards in 1 2 4 8; do
  "$cli" --scenario "$scenario" --jobs 2 --deterministic --shards "$shards" \
    --out "$tmp/shards$shards.json" > /dev/null
  cmp "$tmp/jobs1.json" "$tmp/shards$shards.json"
done

"$cli" --scenario "$scenario" --jobs 2 --deterministic --out "$tmp/gated.json" \
  --baseline "$tmp/jobs1.json" > /dev/null

sed -E '0,/"mean":[-0-9.]+/s//"mean":999999.000000/' "$tmp/jobs1.json" > "$tmp/tampered.json"
set +e
"$cli" --scenario "$scenario" --jobs 2 --deterministic --out "$tmp/refuted.json" \
  --baseline "$tmp/tampered.json" > "$tmp/gate.log" 2>&1
status=$?
set -e
if [ "$status" -ne 3 ]; then
  echo "run_sweep_smoke: expected regression exit code 3, got $status:" >&2
  cat "$tmp/gate.log" >&2
  exit 1
fi
if ! grep -qi "regression" "$tmp/gate.log"; then
  echo "run_sweep_smoke: gate failed without reporting a regression:" >&2
  cat "$tmp/gate.log" >&2
  exit 1
fi

# Expect exit code 1 from the CLI run with the given arguments, with
# `$1` (the flag or field at fault) named in what it printed.
expect_usage_error() {
  local culprit=$1
  shift
  rm -f "$tmp/bad.json"
  set +e
  "$cli" "$@" --deterministic --out "$tmp/bad.json" > "$tmp/bad.log" 2>&1
  local status=$?
  set -e
  if [ "$status" -ne 1 ] || [ -e "$tmp/bad.json" ] || ! grep -qF -- "$culprit" "$tmp/bad.log"; then
    echo "run_sweep_smoke: '$*' exited $status without a usage error naming $culprit:" >&2
    cat "$tmp/bad.log" >&2
    exit 1
  fi
}
# --jobs -1 used to run 4294967295 workers, --jobs two hardware
# concurrency, --tolerance x a tolerance of 0.
expect_usage_error --jobs --scenario "$scenario" --jobs -1
expect_usage_error --jobs --scenario "$scenario" --jobs two
expect_usage_error --shards --scenario "$scenario" --shards -1
expect_usage_error --tolerance --scenario "$scenario" --tolerance x
# 2^32 + 2 hosts used to wrap to a 2-host run.
echo '{"workload":"delivery","variant":"x","topology":{"num_mss":4,"num_mh":4294967298}}' \
  > "$tmp/wrap.json"
expect_usage_error topology.num_mh --scenario "$tmp/wrap.json"

echo "run_sweep_smoke: jobs- and shard-independent artifacts byte-identical; gate passes clean baseline and rejects tampered one; malformed numbers are usage errors"
