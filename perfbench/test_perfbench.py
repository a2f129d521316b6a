"""Self-test of the repository benchmark at tiny input sizes.

From the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

It builds the benchmark the way run.py does, runs each workload at
--size tiny, and checks three things: every metric BENCHMARK.json names
is reported with its unit, untraced and traced; one seed's exact counts
repeat across two runs; and echo's counts do not depend on the shard
count.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload, seed, trace, *extra):
    """Run one workload at tiny size; returns (result object, exact counts)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    counts = next(json.loads(line[len("counts "):])
                  for line in lines if line.startswith("counts "))
    return json.loads(lines[-1]), counts


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def test_every_metric_is_reported_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[section]}
            for workload in self.workloads:
                with self.subTest(workload=workload, trace=trace):
                    result, _ = bench(workload, 3, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, expected)
                    if trace == 1:
                        # A span recorded under a name the report does not
                        # use would read as 0 here.
                        for name in expected:
                            if name.endswith("_s") and name != "trace.overhead_s":
                                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_counts_repeat_for_one_seed(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                _, first = bench(workload, 11, 0)
                _, second = bench(workload, 11, 0)
                self.assertIn("sched.fired", first)
                self.assertEqual(first, second)

    def test_echo_counts_do_not_depend_on_shard_count(self):
        _, one = bench("echo_100k_s2", 5, 0, "--shards", "1")
        _, two = bench("echo_100k_s2", 5, 0, "--shards", "2")
        self.assertIn("workload.sent", one)
        self.assertEqual(one, two)


if __name__ == "__main__":
    unittest.main()
