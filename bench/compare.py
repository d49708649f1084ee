#!/usr/bin/env python3
"""Compare timed runs of a parent commit and a change, metric by metric.

    python3 bench/compare.py --parent P1.json ... --change C1.json ... \\
        [--claim METRIC WORKLOAD]

Each argument is a ``bench/run.py --out`` file or a directory of them.
Each workload's runs are paired in sorted file order (run them
alternately: parent, change, parent, ...; give each pair the same
``--seed``), at least ten pairs.  For every workload and end-to-end
metric of ``BENCHMARK.json`` it prints each side's median and quartiles,
the change's wins, losses and ties over the pairs, and a verdict:

``improved``   there are at least ten pairs, the change wins at least
               9 of 10 of them, and the medians differ by more than the
               parent's quartile distance;
``regressed``  the change's median is worse than the parent's by more
               than the metric's bound;
``unresolved`` a side's spread, (Q3 - Q1) / median, is wider than the
               bound and not every change run beats every parent run;
``unchanged``  otherwise.

It also flags pairs whose output digest or simulated event count
differ, which means the change altered what the program computes.  It
exits with 1 on a regression, on a higher share of failed ops, on a
workload whose parent and change run counts differ, or when a
``--claim`` is not ``improved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


@dataclass
class Row:
    workload: str
    metric: str
    parent: list[float]
    change: list[float]
    wins: int
    losses: int
    ties: int
    verdict: str


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(parent: list[float], change: list[float], *, better: str,
            bound: float) -> tuple[str, int, int, int]:
    """The verdict for one metric, with the change's wins/losses/ties."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    ties = len(parent) - wins - losses
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    gain = sign * (c_median - p_median)
    if (len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent)
            and gain > p_q3 - p_q1):
        return "improved", wins, losses, ties
    if -gain > bound * abs(p_median):
        return "regressed", wins, losses, ties
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved", wins, losses, ties
    return "unchanged", wins, losses, ties


def load_runs(paths: list[Path]) -> dict[str, list[dict]]:
    """Each workload's results, in sorted file order.

    Directories contribute their ``*.json``; a file may hold one
    workload or several.
    """
    files: list[Path] = []
    for path in paths:
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    results: dict[str, list[dict]] = {}
    for path in files:
        run = json.loads(path.read_text(encoding="utf-8"))
        for name, result in run["workloads"].items():
            results.setdefault(name, []).append(result)
    return results


def compare(parent_runs: dict[str, list[dict]],
            change_runs: dict[str, list[dict]],
            spec: dict) -> tuple[list[Row], list[str], list[str]]:
    """Rows for every workload x end-to-end metric, the flags, and the
    problems that fail the comparison: runs that do not pair up, and
    workloads on which a larger share of ops failed."""
    rows: list[Row] = []
    flags: list[str] = []
    problems: list[str] = []
    for workload in sorted(parent_runs.keys() | change_runs.keys()):
        parent_results = parent_runs.get(workload, [])
        change_results = change_runs.get(workload, [])
        if len(parent_results) != len(change_results):
            problems.append(f"{workload}: {len(parent_results)} parent runs "
                            f"but {len(change_results)} change runs")
            continue
        if len(parent_results) < MIN_PAIRS:
            flags.append(f"{workload}: {len(parent_results)} pairs; a "
                         f"gain needs at least {MIN_PAIRS}")
        pairs = list(zip(parent_results, change_results))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [p["metrics"][name] for p, _ in pairs]
            change = [c["metrics"][name] for _, c in pairs]
            result, wins, losses, ties = verdict(
                parent, change, better=metric["better"],
                bound=metric["bound"])
            rows.append(Row(workload, name, parent, change, wins, losses,
                            ties, result))
        for index, (p, c) in enumerate(pairs):
            if p["digest"] != c["digest"]:
                flags.append(f"{workload} pair {index}: output digest "
                             "changed")
            if p["exact"].get("events") != c["exact"].get("events"):
                flags.append(f"{workload} pair {index}: simenv.events "
                             f"{p['exact'].get('events')} -> "
                             f"{c['exact'].get('events')}")
        failed = [sum(side["failed"] for side in sides)
                  / max(1, sum(side["attempted"] for side in sides))
                  for sides in zip(*pairs)]
        if failed[1] > failed[0]:
            problems.append(f"{workload}: failed-op share rose from "
                            f"{failed[0]:.4g} to {failed[1]:.4g}")
    return rows, flags, problems


def _format(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    parser.add_argument("--claim", nargs=2, metavar=("METRIC", "WORKLOAD"))
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    rows, flags, problems = compare(
        load_runs(args.parent), load_runs(args.change), spec)
    print(f"{'workload':16} {'metric':16} {'parent median [Q1, Q3]':34} "
          f"{'change median [Q1, Q3]':34} {'W/L/T':9} verdict")
    for row in rows:
        print(f"{row.workload:16} {row.metric:16} {_format(row.parent):34} "
              f"{_format(row.change):34} "
              f"{f'{row.wins}/{row.losses}/{row.ties}':9} {row.verdict}")
    for flag in flags:
        print(f"FLAG {flag}")
    for problem in problems:
        print(f"FAIL {problem}")

    failing = bool(problems) or any(row.verdict == "regressed"
                                    for row in rows)
    if args.claim:
        metric, workload = args.claim
        claimed = [row for row in rows
                   if row.metric == metric and row.workload == workload]
        if not claimed:
            parser.error(f"no {metric} on {workload} in these runs")
        met = claimed[0].verdict == "improved"
        print(f"claim {metric} on {workload}: "
              f"{'met' if met else 'not met'} ({claimed[0].verdict})")
        failing = failing or not met
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
