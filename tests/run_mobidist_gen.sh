#!/usr/bin/env bash
# Generator round-trip gate, registered with ctest as `mobidist_gen`.
# Three properties:
#   1. mobidist_gen is a pure function of its flags: the same invocation
#      twice produces byte-identical scenario files, and a malformed or
#      out-of-range numeric flag is a usage error (exit 1).
#   2. The generated document is real ScenarioSpec JSON: mobidist_sweep
#      parses and runs it (the generator also self-validates by
#      re-parsing before writing, but this pins the consumer side), and
#      every fault field set with --set reaches the written file.
#   3. At 1e5-MH scale the generated scenario's deterministic artifact
#      is byte-identical across --jobs 1 and --jobs 4 — the same
#      grouping-independence guarantee the hand-written scenarios carry.
set -euo pipefail

build_dir=${1:?usage: run_mobidist_gen.sh <build-dir>}
gen="$build_dir/tools/mobidist_gen"
cli="$build_dir/tools/mobidist_sweep"
for bin in "$gen" "$cli"; do
  if [ ! -x "$bin" ]; then
    echo "run_mobidist_gen: missing binary $bin (build first)" >&2
    exit 1
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# 1. Determinism: identical flags, identical bytes.
"$gen" --model commuter --mh 100000 --seeds 1 --moves-per-host 1 \
  --out "$tmp/gen_a.json" > /dev/null 2>&1
"$gen" --model commuter --mh 100000 --seeds 1 --moves-per-host 1 \
  --out "$tmp/gen_b.json" > /dev/null 2>&1
if ! cmp -s "$tmp/gen_a.json" "$tmp/gen_b.json"; then
  echo "run_mobidist_gen: same flags produced different files" >&2
  exit 1
fi

# Unknown models must be rejected, not silently defaulted.
if "$gen" --model teleport --mh 100 --out "$tmp/bad.json" > /dev/null 2>&1; then
  echo "run_mobidist_gen: unknown model was accepted" >&2
  exit 1
fi

# Numeric flags are whole in-range tokens: --mh 1e6 used to write a
# 1-host scenario and --mh 4294967298 a 2-host one. Each must exit 1
# naming the flag and write nothing.
for flags in "--mh 1e6" "--mh 4294967298" "--mh -5" "--seeds 3x" \
             "--seed 18446744073709551616"; do
  rm -f "$tmp/bad.json"
  set +e
  # shellcheck disable=SC2086 # $flags is a flag and its value
  "$gen" --model commuter --mh 100 $flags --out "$tmp/bad.json" > "$tmp/bad.log" 2>&1
  status=$?
  set -e
  if [ "$status" -ne 1 ] || [ -e "$tmp/bad.json" ] || ! grep -qF -- "${flags%% *}" "$tmp/bad.log"; then
    echo "run_mobidist_gen: '$flags' exited $status without a usage error naming it:" >&2
    cat "$tmp/bad.log" >&2
    exit 1
  fi
done
# The full u64 seed range stays exact.
"$gen" --model commuter --mh 100 --seed 18446744073709551615 --out "$tmp/max_seed.json" \
  > /dev/null 2>&1
if ! grep -qF '"base":18446744073709551615' "$tmp/max_seed.json"; then
  echo "run_mobidist_gen: --seed 18446744073709551615 was not written exactly" >&2
  exit 1
fi

# Fault fields set with --set must survive the generator's own round
# trip and reach the written file.
if ! "$gen" --model commuter --mh 2000 --out "$tmp/drop.json" \
  --set fault.drop_first_wireless=3 > /dev/null 2>&1; then
  echo "run_mobidist_gen: fault.drop_first_wireless did not round-trip" >&2
  exit 1
fi
"$gen" --model commuter --mh 2000 --out "$tmp/rto.json" --set fault.wireless_loss=0.1 \
  --set fault.rto_base=64 --set fault.evacuate_on_crash=0 > /dev/null 2>&1
for field in '"rto_base":64' '"evacuate_on_crash":false'; do
  if ! grep -qF "$field" "$tmp/rto.json"; then
    echo "run_mobidist_gen: generated fault section lacks $field" >&2
    exit 1
  fi
done
# Switching background mobility off keeps the model that still moves
# the group's members: its block is written with "enabled":false, not
# dropped.
"$gen" --model commuter --mh 200 --out "$tmp/mob_off.json" \
  --set mobility.enabled=0 > /dev/null 2>&1
for field in '"enabled":false' '"pattern":"commuter"' '"regions":8' \
             '"max_moves_per_host":2'; do
  if ! grep -qF "$field" "$tmp/mob_off.json"; then
    echo "run_mobidist_gen: --set mobility.enabled=0 lost $field" >&2
    exit 1
  fi
done

# 2 + 3. The 1e5-MH leg: run the generated scenario end to end at two
# job counts; deterministic artifacts must be byte-identical.
"$cli" --scenario "$tmp/gen_a.json" --jobs 1 --deterministic \
  --out "$tmp/ARTIFACT_j1.json" > /dev/null
"$cli" --scenario "$tmp/gen_a.json" --jobs 4 --deterministic \
  --out "$tmp/ARTIFACT_j4.json" > /dev/null
if ! cmp -s "$tmp/ARTIFACT_j1.json" "$tmp/ARTIFACT_j4.json"; then
  echo "run_mobidist_gen: 1e5-MH artifact differs between --jobs 1 and --jobs 4" >&2
  diff "$tmp/ARTIFACT_j1.json" "$tmp/ARTIFACT_j4.json" | head -5 >&2 || true
  exit 1
fi

echo "run_mobidist_gen: generator deterministic; 1e5-MH scenario byte-identical across job counts"
