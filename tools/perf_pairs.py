#!/usr/bin/env python3
"""Compare alternating perfbench runs of a parent and a change, pair by pair.

    tools/perf_pairs.py DIR [--benchmark PATH]

DIR holds `parent-<seed>.txt` and `change-<seed>.txt`: the standard output
of `python3 perfbench/run.py --workload all --seed <seed> ...` on each side,
one file per run. The last line of each file is the combined result object,
whose metrics are named `<workload>.<metric>`; its `counts {...}` lines
record the work each workload did. The runs of one seed form a pair.

For every `<workload>.<metric>` that the benchmark file (BENCHMARK.json at
the repository root unless --benchmark names another) declares, the report
gives the parent's median, quartiles and IQR/median, the change's median,
the ratio of the medians, each pair's ratio, and the pairs the change won
in the metric's `better` direction. Two rules are then applied:

  gain   the change wins at least 9 of every 10 pairs, and its median is
         better than the parent's by more than the parent's interquartile
         range;
  bound  (end-to-end metrics only) the change's median is not worse than
         the parent's by more than the metric's `bound`, a fraction of the
         parent's median.

Quartiles are linearly interpolated between the sorted samples
(`statistics.quantiles(..., method="inclusive")`). The report also lists
failed runs (no result object, `correct` false, or `failed` > 0), seeds
run on one side only, and seeds whose `counts` lines differ between the
two sides. It prints a Markdown table; the exit status is 0 when every
run succeeded, every seed is paired with identical `counts`, and every
end-to-end median is inside its bound, 1 otherwise, and 2 on a usage
error (no pairs, or an unreadable benchmark file).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

RUN_RE = re.compile(r"^(parent|change)-(\d+)\.txt$")
DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_run(path: Path) -> dict:
    """One perfbench output file: its result object (None when the run
    left none), its `counts` lines, and why it failed, if it did."""
    lines = path.read_text().splitlines()
    counts = [line for line in lines if line.startswith("counts ")]
    result = None
    for line in reversed(lines):
        if line.strip():
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                pass
            break
    if not isinstance(result, dict) or "metrics" not in result:
        return {"result": None, "counts": counts, "failure": "no result object"}
    failure = None
    if not result.get("correct", False):
        failure = "correct is false"
    elif result.get("failed", 0):
        failure = f"{result['failed']} failed of {result.get('attempted', '?')} attempted"
    return {"result": result, "counts": counts, "failure": failure}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of the samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Every figure the report shows for one metric over the pairs."""
    higher = metric["better"] == "higher"
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    iqr = q3 - q1
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    gap = (c_med - p_med) if higher else (p_med - c_med)
    row = {
        "name": metric["name"],
        "better": metric["better"],
        "parent_median": p_med,
        "parent_q1": q1,
        "parent_q3": q3,
        "iqr_over_median": ratio(iqr, p_med),
        "change_median": c_med,
        "ratio": ratio(c_med, p_med),
        "pair_ratios": [ratio(c, p) for p, c in zip(parent, change)],
        "won": won,
        "pairs": len(parent),
        "gain": 10 * won >= 9 * len(parent) and gap > iqr,
        "inside_bound": None,
    }
    if "bound" in metric:
        limit = p_med * (1 - metric["bound"]) if higher else p_med * (1 + metric["bound"])
        row["inside_bound"] = c_med >= limit if higher else c_med <= limit
    return row


def analyze(directory: Path, benchmark: dict) -> dict:
    """Pairs the runs in `directory` by seed and compares every metric the
    benchmark declares that all paired runs report."""
    runs: dict[str, dict[int, dict]] = {"parent": {}, "change": {}}
    for path in sorted(directory.iterdir()):
        match = RUN_RE.match(path.name)
        if match:
            runs[match.group(1)][int(match.group(2))] = read_run(path)
    seeds = sorted(set(runs["parent"]) & set(runs["change"]))
    unpaired = sorted(set(runs["parent"]) ^ set(runs["change"]))
    failures = [f"{side}-{seed}.txt: {run['failure']}"
                for side in ("parent", "change")
                for seed, run in sorted(runs[side].items()) if run["failure"]]
    counts_differ = [s for s in seeds
                     if runs["parent"][s]["counts"] != runs["change"][s]["counts"]]
    ok = [s for s in seeds
          if runs["parent"][s]["result"] is not None and runs["change"][s]["result"] is not None]

    rows = []
    declared = [dict(m, end_to_end=True) for m in benchmark.get("end_to_end", [])]
    declared += [dict(m, end_to_end=False) for m in benchmark.get("per_layer", [])]
    for workload in benchmark.get("workloads", []):
        for metric in declared:
            name = f"{workload['name']}.{metric['name']}"
            samples = {side: [runs[side][s]["result"]["metrics"].get(name, {}).get("value")
                              for s in ok]
                       for side in ("parent", "change")}
            if not ok or None in samples["parent"] or None in samples["change"]:
                continue
            rows.append(compare(dict(metric, name=name), samples["parent"], samples["change"]))
    return {"seeds": seeds, "unpaired": unpaired, "failures": failures,
            "counts_differ": counts_differ, "rows": rows}


def fmt(value: float | None, spec: str = ".4g") -> str:
    return "—" if value is None else format(value, spec)


def render(report: dict) -> str:
    seeds = report["seeds"]
    out = [f"pairs: {len(seeds)} (seeds {', '.join(map(str, seeds))})"]
    if report["unpaired"]:
        out.append("unpaired seeds: " + ", ".join(map(str, report["unpaired"])))
    out.append("failed runs: " + ("; ".join(report["failures"]) or "none"))
    if report["counts_differ"]:
        out.append("counts: DIFFER on seeds " + ", ".join(map(str, report["counts_differ"])))
    else:
        out.append("counts: identical on every seed")
    out.append("")
    out.append("| metric | better | parent median | parent Q1–Q3 | IQR/median | change median"
               " | ratio | pair ratios | won | gain | bound |")
    out.append("|---|---|---|---|---|---|---|---|---|---|---|")
    for row in report["rows"]:
        bound = {None: "—", True: "inside", False: "OUTSIDE"}[row["inside_bound"]]
        out.append(
            f"| {row['name']} | {row['better']} | {fmt(row['parent_median'])}"
            f" | {fmt(row['parent_q1'])}–{fmt(row['parent_q3'])}"
            f" | {fmt(row['iqr_over_median'], '.1%')} | {fmt(row['change_median'])}"
            f" | {fmt(row['ratio'], '.3f')}"
            f" | {' '.join(fmt(r, '.2f') for r in row['pair_ratios'])}"
            f" | {row['won']}/{row['pairs']} | {'yes' if row['gain'] else 'no'} | {bound} |")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", type=Path,
                        help="directory of parent-<seed>.txt and change-<seed>.txt")
    parser.add_argument("--benchmark", type=Path, default=DEFAULT_BENCHMARK,
                        help="benchmark declaration (default: the repository's BENCHMARK.json)")
    args = parser.parse_args(argv)
    try:
        benchmark = json.loads(args.benchmark.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"perf_pairs: cannot read {args.benchmark}: {err}", file=sys.stderr)
        return 2
    if not args.directory.is_dir():
        print(f"perf_pairs: {args.directory} is not a directory", file=sys.stderr)
        return 2
    report = analyze(args.directory, benchmark)
    if not report["seeds"]:
        print(f"perf_pairs: no seed has both a parent and a change run in {args.directory}",
              file=sys.stderr)
        return 2
    print(render(report))
    broken = [row for row in report["rows"] if row["inside_bound"] is False]
    clean = not (report["failures"] or report["unpaired"] or report["counts_differ"] or broken)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
