#!/usr/bin/env bash
# Golden-trace gate, registered with ctest as `trace_golden`. Replays the
# small scale_smoke and mutex_smoke scenarios with tracing on and
# requires the same-seed event streams to be byte-identical to the
# goldens committed under tests/goldens/, and runs every
# scenarios/*.json in --deterministic mode and requires its sweep
# artifact to equal tests/goldens/ARTIFACT_<scenario>.json — the pinned
# contract that refactors and hot-path optimizations must not change
# simulated behavior by a single byte. A scenario without a golden
# artifact fails the gate.
#
# Regenerating goldens (only after an intentional behavior change):
#   MOBIDIST_TRACE_DIR=out/ build/tools/mobidist_sweep \
#     --scenario scenarios/scale_smoke.json --deterministic \
#     --out out/ARTIFACT_scale_smoke.json
# then copy the files named below into tests/goldens/.
set -euo pipefail

build_dir=${1:?usage: run_trace_golden.sh <build-dir> <source-dir>}
source_dir=${2:?usage: run_trace_golden.sh <build-dir> <source-dir>}
cli="$build_dir/tools/mobidist_sweep"
goldens="$source_dir/tests/goldens"
if [ ! -x "$cli" ]; then
  echo "run_trace_golden: missing binary $cli (build first)" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for scenario in "$source_dir"/scenarios/*.json; do
  name=$(basename "$scenario" .json)
  if [ ! -f "$goldens/ARTIFACT_$name.json" ]; then
    echo "run_trace_golden: scenarios/$name.json has no golden ARTIFACT_$name.json" >&2
    status=1
  fi
  # Only the two smoke scenarios have trace goldens; the rest are pinned
  # by their artifacts alone, so they run without trace export.
  case "$name" in
    scale_smoke | mutex_smoke) trace_dir="$tmp/" ;;
    *) trace_dir="" ;;
  esac
  MOBIDIST_TRACE_DIR="$trace_dir" "$cli" --scenario "$scenario" \
    --jobs 2 --deterministic --out "$tmp/ARTIFACT_$name.json" > /dev/null
done

# Sharded-engine leg: the canonical merged stream at shards=1 has its
# own goldens under tests/goldens/shard1/ (per-lane RNG streams make it
# intentionally distinct from the legacy stream above). shard=1 pins
# the merge order; run_shard_independence.sh pins {1,2,4,8} equality.
mkdir -p "$tmp/shard1"
MOBIDIST_TRACE_DIR="$tmp/shard1/" "$cli" --scenario "$source_dir/scenarios/scale_smoke.json" \
  --jobs 2 --deterministic --shards 1 \
  --out "$tmp/shard1/ARTIFACT_scale_smoke.json" > /dev/null

for golden in "$goldens"/TRACE_*.jsonl "$goldens"/ARTIFACT_*.json \
              "$goldens"/shard1/TRACE_*.jsonl "$goldens"/shard1/ARTIFACT_*.json; do
  name=$(basename "$golden")
  case "$golden" in
    */shard1/*) candidate="$tmp/shard1/$name" ;;
    *) candidate="$tmp/$name" ;;
  esac
  if [ ! -f "$candidate" ]; then
    echo "run_trace_golden: run produced no $name" >&2
    status=1
    continue
  fi
  if ! cmp -s "$golden" "$candidate"; then
    echo "run_trace_golden: $name differs from committed golden:" >&2
    diff "$golden" "$candidate" | head -5 >&2 || true
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "run_trace_golden: same-seed streams or artifacts are no longer byte-identical" >&2
  exit "$status"
fi

echo "run_trace_golden: all same-seed streams and scenario artifacts byte-identical to committed goldens"
