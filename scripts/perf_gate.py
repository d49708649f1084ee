#!/usr/bin/env python3
"""Perf gate: alternating benchmark runs of a base commit and this tree.

Run:
    python scripts/perf_gate.py BASE      # e.g. origin/main, HEAD, a49270f

Extracts ``BASE`` into a temporary directory with ``git archive BASE
| tar -x`` (nothing is written under ``.git``) and copies this tree's
``bench/`` and ``BENCHMARK.json`` over it, so both sides run one
benchmark.  For ``i`` in ``0..PAIRS-1`` it runs ``bench/run.py --seed i
--seconds SECONDS`` on both trees, the base first on even ``i`` and
this tree first on odd ``i``.  This tree is the working tree, so
``python scripts/perf_gate.py HEAD`` measures uncommitted edits.

Run JSONs land in ``perf-gate/base/`` and ``perf-gate/head/`` and the
comparison table in ``perf-gate/compare.txt``.  The exit status is
that of ``bench/compare.py --parent perf-gate/base --change
perf-gate/head``: 1 on a ``regressed`` metric, on a higher share of
failed ops, or on runs that do not pair.  A run that fails an output
check also fails the gate, with 1.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = REPO_ROOT / "perf-gate"

#: Run pairs, and the ``--seconds`` of each run.  Up to about 6 s every
#: workload stops at or near its three-round minimum, so a shorter run
#: saves almost nothing.  Pairs, not longer runs, average out a host
#: that slows for a run or two: at three pairs one such slowdown read a
#: 21 ms ``setup_s`` 29% slow in an A/A gate.  Six pairs stayed quiet in
#: ten A/A gates and caught every injected 1.5x slowdown, at about 75 s
#: a pair on a 2-vCPU host (EXPERIMENTS.md, "One gate").
PAIRS = 6
SECONDS = 6.0


def bench_run(tree: Path, seed: int, out: Path) -> bool:
    """One ``bench/run.py`` of ``tree``; ``False`` unless it exited 0."""
    command = [sys.executable, str(tree / "bench" / "run.py"),
               "--seed", str(seed), "--seconds", str(SECONDS),
               "--out", str(out)]
    return subprocess.run(command, cwd=tree).returncode == 0


def checkout(base: str, tree: Path) -> None:
    """Extract ``base``'s committed files into the new directory
    ``tree``: ``git archive base | tar -x``."""
    tree.mkdir(parents=True)
    with subprocess.Popen(["git", "-C", str(REPO_ROOT), "archive", base],
                          stdout=subprocess.PIPE) as archive:
        extract = subprocess.run(["tar", "-x", "-C", str(tree)],
                                 stdin=archive.stdout)
    if archive.returncode != 0 or extract.returncode != 0:
        raise RuntimeError(f"could not extract {base!r} with git archive")


def gate(base_tree: Path) -> int:
    sides = {"base": base_tree, "head": REPO_ROOT}
    for pair in range(PAIRS):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            print(f"pair {pair}: {side}", flush=True)
            if not bench_run(sides[side], pair,
                             OUT_DIR / side / f"{pair:02d}.json"):
                print(f"perf gate: the {side} run of pair {pair} failed",
                      file=sys.stderr)
                return 1
    compare = subprocess.run(
        [sys.executable, str(REPO_ROOT / "bench" / "compare.py"),
         "--parent", str(OUT_DIR / "base"),
         "--change", str(OUT_DIR / "head")],
        capture_output=True, text=True)
    report = compare.stdout + compare.stderr
    (OUT_DIR / "compare.txt").write_text(report, encoding="utf-8")
    print(report, end="")
    return compare.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("base", help="commit to compare this tree against")
    args = parser.parse_args(argv)
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    OUT_DIR.mkdir()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as scratch:
        base_tree = Path(scratch) / "base"
        checkout(args.base, base_tree)
        shutil.rmtree(base_tree / "bench", ignore_errors=True)
        shutil.copytree(REPO_ROOT / "bench", base_tree / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy2(REPO_ROOT / "BENCHMARK.json", base_tree)
        status = gate(base_tree)
    print(f"perf gate: exit {status} after "
          f"{time.perf_counter() - started:.0f} s", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
