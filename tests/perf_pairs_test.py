#!/usr/bin/env python3
"""Self-test of tools/perf_pairs.py over generated perfbench outputs.

Each case writes parent-<seed>.txt / change-<seed>.txt files shaped like
`perfbench/run.py --workload all` output (per-workload `counts` lines, a
table, and the combined result object last) into a temporary directory,
with a small benchmark declaration beside them, and checks the figures,
the two rules and the exit status. Run: python3 tests/perf_pairs_test.py
"""

import contextlib
import importlib.util
import io
import json
import tempfile
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"
spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)

BENCHMARK = {
    "workloads": [{"name": "echo"}, {"name": "l2"}],
    "end_to_end": [
        {"name": "events_per_s", "unit": "events/s", "better": "higher", "bound": 0.25},
        {"name": "total_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [{"name": "sim.run_s", "unit": "s", "better": "lower"}],
}
SEEDS = range(101, 111)
# Parent events/s per seed: sorted, 90..108 in steps of 2, so the median
# is 99, Q1 94.5, Q3 103.5 and the IQR 9.
PARENT_RATE = [96, 90, 108, 94, 100, 92, 106, 98, 102, 104]


def run_text(metrics, counts="{\"events\":10}", failed=0, correct=True):
    """One `--workload all` output with the given combined metrics."""
    lines = []
    for workload in ("echo", "l2"):
        lines.append(f"provenance {{\"workload\":\"{workload}\"}}")
        lines.append(f"counts {counts}")
    lines.append("")
    lines.append("metric  unit  echo  l2")
    combined = {"correct": correct, "attempted": 6, "failed": failed,
                "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    lines.append(json.dumps(combined))
    return "\n".join(lines) + "\n"


def metrics_for(rate, total=2.0, run_s=None):
    metrics = {"echo.events_per_s": rate, "echo.total_s": total,
               "l2.events_per_s": 50.0, "l2.total_s": 1.0}
    if run_s is not None:
        metrics["echo.sim.run_s"] = run_s
    return metrics


class PerfPairsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name) / "runs"
        self.dir.mkdir()
        self.benchmark = Path(self.tmp.name) / "BENCHMARK.json"
        self.benchmark.write_text(json.dumps(BENCHMARK))

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, side, seed, text):
        (self.dir / f"{side}-{seed}.txt").write_text(text)

    def write_pairs(self, change_rate, **change_kwargs):
        for i, seed in enumerate(SEEDS):
            self.write("parent", seed, run_text(metrics_for(PARENT_RATE[i], run_s=1.0)))
            self.write("change", seed, run_text(metrics_for(change_rate(i), run_s=0.9),
                                                **change_kwargs))

    def report(self):
        return perf_pairs.analyze(self.dir, BENCHMARK)

    def row(self, name):
        return next(r for r in self.report()["rows"] if r["name"] == name)

    def exit_status(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            status = perf_pairs.main([str(self.dir), "--benchmark", str(self.benchmark)])
        self.output = out.getvalue()
        return status

    def test_clear_gain_is_claimable(self):
        self.write_pairs(lambda i: PARENT_RATE[i] * 1.3)
        row = self.row("echo.events_per_s")
        self.assertEqual(row["parent_median"], 99)
        self.assertEqual((row["parent_q1"], row["parent_q3"]), (94.5, 103.5))
        self.assertAlmostEqual(row["iqr_over_median"], 9 / 99)
        self.assertAlmostEqual(row["change_median"], 99 * 1.3)
        self.assertAlmostEqual(row["ratio"], 1.3)
        self.assertEqual(len(row["pair_ratios"]), 10)
        for r in row["pair_ratios"]:
            self.assertAlmostEqual(r, 1.3)
        self.assertEqual((row["won"], row["pairs"]), (10, 10))
        self.assertTrue(row["gain"])
        self.assertTrue(row["inside_bound"])
        self.assertEqual(self.exit_status(), 0)
        self.assertIn("counts: identical on every seed", self.output)
        self.assertIn("failed runs: none", self.output)
        self.assertIn("| echo.events_per_s | higher | 99 | 94.5–103.5 | 9.1% | 128.7 | 1.300 |",
                      self.output)

    def test_eight_wins_of_ten_is_no_gain(self):
        self.write_pairs(lambda i: PARENT_RATE[i] * (0.9 if i < 2 else 1.5))
        row = self.row("echo.events_per_s")
        self.assertEqual(row["won"], 8)
        self.assertFalse(row["gain"])

    def test_gap_inside_the_parent_iqr_is_no_gain(self):
        self.write_pairs(lambda i: PARENT_RATE[i] + 5)  # wins every pair by 5 < IQR 9
        row = self.row("echo.events_per_s")
        self.assertEqual(row["won"], 10)
        self.assertFalse(row["gain"])

    def test_lower_is_better_metrics_count_wins_downwards(self):
        self.write_pairs(lambda i: PARENT_RATE[i])
        row = self.row("echo.sim.run_s")  # per-layer: 1.0 -> 0.9 in every pair
        self.assertEqual(row["better"], "lower")
        self.assertEqual(row["won"], 10)
        self.assertIsNone(row["inside_bound"])
        self.assertFalse(self.row("echo.total_s")["gain"])  # equal in every pair

    def test_median_past_the_bound_fails(self):
        self.write_pairs(lambda i: PARENT_RATE[i] * 0.7)
        row = self.row("echo.events_per_s")
        self.assertFalse(row["inside_bound"])
        self.assertEqual(row["won"], 0)
        self.assertEqual(self.exit_status(), 1)
        self.assertIn("| OUTSIDE |", self.output)

    def test_failed_and_truncated_runs_are_reported(self):
        self.write_pairs(lambda i: PARENT_RATE[i])
        self.write("change", 103, run_text(metrics_for(99), failed=1))
        self.write("change", 104,
                   "counts {\"events\":10}\nperfbench: echo: the binary exited with 1\n")
        report = self.report()
        self.assertEqual(report["failures"], ["change-103.txt: 1 failed of 6 attempted",
                                              "change-104.txt: no result object"])
        self.assertEqual(self.row("echo.events_per_s")["pairs"], 9)
        self.assertEqual(self.exit_status(), 1)

    def test_differing_counts_and_unpaired_seeds_are_reported(self):
        self.write_pairs(lambda i: PARENT_RATE[i])
        self.write("change", 105, run_text(metrics_for(99), counts="{\"events\":11}"))
        self.write("parent", 200, run_text(metrics_for(99)))
        report = self.report()
        self.assertEqual(report["counts_differ"], [105])
        self.assertEqual(report["unpaired"], [200])
        self.assertEqual(self.exit_status(), 1)
        self.assertIn("counts: DIFFER on seeds 105", self.output)

    def test_no_pairs_is_a_usage_error(self):
        self.write("parent", 101, run_text(metrics_for(99)))
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(self.exit_status(), 2)

    def test_repository_benchmark_declaration_parses(self):
        benchmark = json.loads(perf_pairs.DEFAULT_BENCHMARK.read_text())
        names = [w["name"] for w in benchmark["workloads"]]
        metrics = {f"{w}.{m['name']}": 1.0 for w in names for m in benchmark["end_to_end"]}
        for seed in (1, 2):
            self.write("parent", seed, run_text(metrics))
            self.write("change", seed, run_text(metrics))
        rows = perf_pairs.analyze(self.dir, benchmark)["rows"]
        self.assertEqual(len(rows), len(metrics))
        self.assertTrue(all(row["inside_bound"] for row in rows))


if __name__ == "__main__":
    unittest.main()
