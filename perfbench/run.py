#!/usr/bin/env python3
"""Build and run the repository benchmark.

From the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The first call configures and builds the benchmark binary (the CMake
project in this directory) in $CARGO_TARGET_DIR, or in .bench_build when
that is unset; later calls rebuild only what changed, and build output
goes to stderr. The binary runs the workload for S seconds of host time
and prints, as the last line of stdout, the result object {"correct",
"attempted", "failed", "metrics"}. A full record of the run goes to
<build dir>/results/. With --workload all, every workload runs in turn,
and one table and one combined object close the output. --size tiny and
--shards K serve the self-test (test_perfbench.py). README.md describes
the workloads and the metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The repository's default build type. Two compile jobs keep a shared
# host usable while the first call builds.
BUILD_TYPE = "RelWithDebInfo"
BUILD_JOBS = "2"


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no mobidist sources under {ROOT}; run from a repository checkout", 2)
    bdir = build_dir()
    # Compiler temporaries stay inside the build directory as well.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", BUILD_JOBS])
    for step in steps:
        sys.stderr.flush()
        if subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(bdir, "perfbench")


def git_sha():
    """HEAD's sha, or "none" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def run_workload(exe, workload, args, capture):
    """Run one workload; returns its stdout when `capture` is set."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    record = os.path.join(results, f"{workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--record", record,
           "--git-sha", git_sha()]
    if args.shards is not None:
        cmd += ["--shards", str(args.shards)]
    sys.stdout.flush()
    proc = subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)
    if proc.returncode != 0:
        fail(f"{workload}: the benchmark binary exited with {proc.returncode}",
             proc.returncode)
    return proc.stdout


def run_all(exe, args):
    """Run every workload in turn, then print one table and one combined
    object whose metrics are named <workload>.<metric>."""
    names = subprocess.run([exe, "--list"], capture_output=True, text=True,
                           check=True).stdout.split()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = {}
    for name in names:
        lines = run_workload(exe, name, args, capture=True).splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            table.setdefault((metric, entry["unit"]), {})[name] = entry["value"]
    width = max(len(name) for name in names)
    print(f"\n{'metric':<30} {'unit':<12} " + " ".join(f"{n:>{width}}" for n in names))
    for (metric, unit), values in table.items():
        cells = " ".join(f"{values[n]:>{width}.6g}" for n in names)
        print(f"{metric:<30} {unit:<12} {cells}")
    print(json.dumps(combined))


def main():
    parser = argparse.ArgumentParser(description="Build and run the repository benchmark.")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--shards", type=int)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must not be negative")
    exe = build()
    if args.workload == "all":
        run_all(exe, args)
    else:
        run_workload(exe, args.workload, args, capture=False)


if __name__ == "__main__":
    main()
