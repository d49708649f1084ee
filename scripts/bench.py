#!/usr/bin/env python3
"""Wall-clock benchmark runner — emits ``BENCH_v2.json``.

Times the named scenarios in :mod:`repro.eval.bench` (testbed boot,
discovery rounds at N = 4 through 1024 devices, the Table 8 workflow,
a ``PS_*`` round-trip burst, a file transfer and the seed-101 chaos
replay) and writes a schema-versioned report.

Run:
    PYTHONPATH=src python scripts/bench.py               # full, 3 repeats
    PYTHONPATH=src python scripts/bench.py --quick       # CI mode, 1 repeat
    PYTHONPATH=src python scripts/bench.py --jobs 4      # scenarios in parallel
    PYTHONPATH=src python scripts/bench.py --shards 4    # sharded world engine
    PYTHONPATH=src python scripts/bench.py --shards 4 \\
        --scenario discovery_n100k                       # 100k-device crowd
    PYTHONPATH=src python scripts/bench.py --shards 4 \\
        --partition tile --rebalance \\
        --scenario crowd_clustered_n100k                 # tile + rebalancer
    PYTHONPATH=src python scripts/bench.py --profile     # + cProfile pstats
    PYTHONPATH=src python scripts/bench.py --quick \\
        --check benchmarks/baseline.json                 # regression gate

``--jobs N`` fans scenarios across worker processes; the simulations
are seed-deterministic, so events/sim-time fields match the serial run
exactly, but wall-clock fields contend for the host — keep regression
timing (``--check``) on serial runs.

Exit status: 0 on success, 1 when ``--check`` finds a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval.bench import (SCENARIOS, SHARDED_SCENARIOS,  # noqa: E402
                              ScenarioResult, compare_reports, run_bench)
from repro.shard import PARTITION_KINDS  # noqa: E402


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Time the wall-clock benchmark scenarios.")
    parser.add_argument("--quick", action="store_true",
                        help="one repeat and reduced workloads (CI mode)")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and dump pstats next to "
                             "the JSON output")
    parser.add_argument("--alloc", action="store_true",
                        help="attach a gc/tracemalloc allocation profile "
                             "to each record (one extra instrumented pass "
                             "per scenario; timed repeats are unaffected)")
    parser.add_argument("--scenario", action="append", dest="scenarios",
                        metavar="NAME",
                        choices=sorted(set(SCENARIOS) | set(SHARDED_SCENARIOS)),
                        help="run only this scenario (repeatable); "
                             "discovery_n100k and city_n1M need --shards")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override repeat count (default: 1 quick, 3 full)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for scenario fan-out "
                             "(default 1 = serial; wall timings contend)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="run shardable scenarios on N region shards "
                             "(worker processes when N > 1); mutually "
                             "exclusive with --jobs")
    parser.add_argument("--partition", choices=PARTITION_KINDS,
                        default="strip",
                        help="region geometry for --shards runs: vertical "
                             "strips (a one-row tile grid) or a "
                             "load-balanceable 2D tile grid (default strip)")
    parser.add_argument("--rebalance", action="store_true",
                        help="let the coordinator reassign tiles between "
                             "shards at window edges (needs "
                             "--partition tile)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_v2.json",
                        help="report path (default: BENCH_v2.json)")
    parser.add_argument("--check", type=Path, metavar="BASELINE",
                        help="compare against a baseline JSON and exit 1 "
                             "on any >tolerance wall-clock regression")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed relative slowdown for --check "
                             "(default 0.30)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.shards is not None and args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    if args.shards is not None and args.jobs > 1:
        parser.error("--shards and --jobs both multiply processes; "
                     "use one or the other")
    if args.shards is None and (args.partition != "strip" or args.rebalance):
        parser.error("--partition/--rebalance only apply to sharded runs; "
                     "pass --shards N")
    if args.rebalance and args.partition != "tile":
        parser.error("--rebalance needs --partition tile")
    return args


def _print_result(name: str, result: ScenarioResult) -> None:
    print(f"  {name:20s} {result.wall_seconds:8.3f}s wall  "
          f"{result.events_processed:8d} events  "
          f"{result.events_per_sec:10.0f} ev/s  "
          f"{result.rss_mb:7.1f} MiB peak", flush=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    mode = "quick" if args.quick else "full"
    print(f"running {mode} bench "
          f"({len(args.scenarios or SCENARIOS)} scenarios)...")

    profiler = None
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    report = run_bench(quick=args.quick, scenarios=args.scenarios,
                       repeats=args.repeats, jobs=args.jobs,
                       shards=args.shards, partition=args.partition,
                       rebalance=args.rebalance, alloc=args.alloc,
                       progress=_print_result)
    if profiler is not None:
        profiler.disable()
        pstats_path = args.output.with_suffix(".pstats")
        profiler.dump_stats(str(pstats_path))
        print(f"profile written to {pstats_path}")

    args.output.write_text(json.dumps(report, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"report written to {args.output}")

    if args.check is not None:
        baseline = json.loads(args.check.read_text(encoding="utf-8"))
        problems = compare_reports(report, baseline,
                                   tolerance=args.tolerance)
        if problems:
            print(f"PERF REGRESSION vs {args.check}:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.check} "
              f"(tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
