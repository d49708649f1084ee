#!/usr/bin/env python3
"""Run the benchmark: each workload in a fresh interpreter, one at a time.

Timed run (end-to-end metrics, output checks)::

    python3 bench/run.py [--workload NAME]... [--seed S] [--seconds T] [--out FILE]

Traced run (per-layer metrics and a spans JSONL file)::

    python3 bench/run.py --trace [--workload NAME]... [--out FILE] [--spans FILE]

It prints one ``workload metric value unit`` line per metric and, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Workload and metric names, units and the default run
length come from ``BENCHMARK.json`` at the repository root.  The exit
status is 0 only when every workload ran and passed every output check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: A workload process that runs longer than this is killed.
WORKER_TIMEOUT_S = 170.0


def run_worker(name: str, args: argparse.Namespace) -> dict | None:
    """Run one workload in its own interpreter; ``None`` if it failed."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"), name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", str(args.spans)]
    source = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (source, os.environ.get("PYTHONPATH")))))
    # Own process group, so a timeout kills all the worker started.
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"{name}: killed after {WORKER_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return None
    if process.returncode != 0:
        print(f"{name}: worker exited with {process.returncode}",
              file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="run only this workload (repeatable; "
                             "default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every workload's base seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long a timed run measures each workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="write every workload's full result as JSON")
    parser.add_argument("--spans", type=Path,
                        default=BENCH_DIR / "out" / "spans.jsonl",
                        help="spans JSONL of a traced run "
                             "(default: bench/out/spans.jsonl)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.workload = args.workload or workloads
    return args


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text("", encoding="utf-8")

    results = {}
    for name in args.workload:
        result = run_worker(name, args)
        if result is None:
            return 1
        missing = [metric["name"] for metric in declared
                   if metric["name"] not in result["metrics"]]
        if missing:
            print(f"{name}: no value for {missing}", file=sys.stderr)
            return 1
        results[name] = result
        for metric in declared:
            print(f"{name} {metric['name']} "
                  f"{result['metrics'][metric['name']]!r} {metric['unit']}")
        for key, value in result.get("raw", {}).items():
            print(f"{name} raw.{key} {value!r} s")
        for key, value in result["exact"].items():
            print(f"{name} exact.{key} {value!r}")
        print(f"{name} digest {result['digest']}")
        for failure in result["failures"]:
            print(f"{name} FAILED {failure}")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "workloads": results}, indent=1) + "\n", encoding="utf-8")

    single = len(results) == 1
    metrics = {}
    for name, result in results.items():
        for metric in declared:
            key = metric["name"] if single else f"{name}.{metric['name']}"
            metrics[key] = {"value": result["metrics"][metric["name"]],
                            "unit": metric["unit"]}
    correct = all(result["failed"] == 0 for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
