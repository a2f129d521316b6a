#!/usr/bin/env bash
# Shard-count-independence gate, registered with ctest as
# `shard_independence`. The headline guarantee of the sharded engine:
# for every scenario in scenarios/ and every seed its sweep grid tests,
# the deterministic artifact AND every per-run merged event trace must
# be byte-identical across shards {1,2,4,8}.
#
# Every trace exported at shards 2, 4 and 8 is also re-checked offline
# by tools/trace_check, so the offline checker sees sharded exports too.
#
# Two distinct properties are pinned per scenario:
#   * shard-safe workloads (scale) actually run the sharded engine, so
#     equality proves the conservative-window protocol + canonical merge
#     are grouping-invariant;
#   * everything else (mobility / faults / on-demand sends) collapses to
#     the legacy engine regardless of --shards, so equality proves the
#     flag is a strict no-op there rather than a silent behavior change.
set -euo pipefail

build_dir=${1:?usage: run_shard_independence.sh <build-dir> <source-dir>}
source_dir=${2:?usage: run_shard_independence.sh <build-dir> <source-dir>}
cli="$build_dir/tools/mobidist_sweep"
checker="$build_dir/tools/trace_check"
for bin in "$cli" "$checker"; do
  if [ ! -x "$bin" ]; then
    echo "run_shard_independence: missing binary $bin (build first)" >&2
    exit 1
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for scenario in "$source_dir"/scenarios/*.json; do
  name=$(basename "$scenario" .json)
  for shards in 1 2 4 8; do
    mkdir -p "$tmp/$name/s$shards"
    MOBIDIST_TRACE_DIR="$tmp/$name/s$shards/" "$cli" --scenario "$scenario" \
      --jobs 2 --deterministic --shards "$shards" \
      --out "$tmp/$name/s$shards/ARTIFACT.json" > /dev/null
  done
  for shards in 2 4 8; do
    if ! cmp -s "$tmp/$name/s1/ARTIFACT.json" "$tmp/$name/s$shards/ARTIFACT.json"; then
      echo "run_shard_independence: $name artifact differs shards=1 vs shards=$shards" >&2
      diff "$tmp/$name/s1/ARTIFACT.json" "$tmp/$name/s$shards/ARTIFACT.json" | head -5 >&2 || true
      status=1
    fi
  done
  traces=$(cd "$tmp/$name/s1" && ls TRACE_*.jsonl 2>/dev/null || true)
  if [ -z "$traces" ]; then
    echo "run_shard_independence: $name produced no traces" >&2
    status=1
    continue
  fi
  for trace in $traces; do
    for shards in 2 4 8; do
      if ! cmp -s "$tmp/$name/s1/$trace" "$tmp/$name/s$shards/$trace"; then
        echo "run_shard_independence: $name/$trace differs shards=1 vs shards=$shards" >&2
        diff "$tmp/$name/s1/$trace" "$tmp/$name/s$shards/$trace" | head -5 >&2 || true
        status=1
      fi
    done
  done
  for shards in 2 4 8; do
    for trace in "$tmp/$name/s$shards"/TRACE_*.jsonl; do
      if ! "$checker" "$trace" > /dev/null; then
        echo "run_shard_independence: trace_check rejects $name/s$shards/$(basename "$trace")" >&2
        status=1
      fi
    done
  done
done

if [ "$status" -ne 0 ]; then
  echo "run_shard_independence: per-seed results depend on the shard count" >&2
  exit "$status"
fi
echo "run_shard_independence: artifacts and merged traces byte-identical across shards {1,2,4,8};" \
     "trace_check passes every trace exported at shards {2,4,8}"
