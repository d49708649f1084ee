#!/usr/bin/env python3
"""Sharded-equivalence gate — compare ``--shards N`` against ``--shards 1``.

For each scenario this runs the sharded engine twice with interaction
logs enabled: once on a single in-process shard and once on N worker
processes.  The two runs must agree on the device-event count and on
every device's full interaction log (times compared bit-exactly).  Any
divergence prints the problems, writes per-run JSON dumps plus a diff
summary under ``--artifacts`` for CI upload, and exits 1.

Run:
    PYTHONPATH=src python scripts/shardcheck.py                  # n64 + n256
    PYTHONPATH=src python scripts/shardcheck.py --shards 7 \\
        --scenario crowd_n1024 --artifacts /tmp/sharddiff
    PYTHONPATH=src python scripts/shardcheck.py --partition tile \\
        --rebalance --scenario crowd_clustered_n256      # tile + rebalancer

Both runs of a pair use the same partition preset and rebalance
setting (at one shard they are no-ops), so the gate certifies the
``strip`` and ``tile`` presets and the dynamic rebalancer against one
oracle.  Both also run with ``verify_ghosts``, so
every window edge cross-checks each ghost replica's position against
its owner's, in the worker processes too.

This is the script behind CI's blocking ``sharded-equivalence`` job.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.shard import (PARTITION_KINDS, SCENARIOS,  # noqa: E402
                         ShardedResult, ShardedRunner, compare_results,
                         write_divergence_artifacts)

#: Default scenarios: big enough for real border traffic, small enough
#: to keep the full interaction logs cheap to collect and compare.
DEFAULT_SCENARIOS = ("crowd_n64", "crowd_n256")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Check sharded runs against the single-shard run.")
    parser.add_argument("--scenario", action="append", dest="scenarios",
                        metavar="NAME", choices=sorted(SCENARIOS),
                        help="scenario to check (repeatable; default "
                             f"{', '.join(DEFAULT_SCENARIOS)})")
    parser.add_argument("--shards", type=int, default=4, metavar="N",
                        help="shard count to compare against 1 (default 4)")
    parser.add_argument("--partition", choices=PARTITION_KINDS,
                        default="strip",
                        help="region geometry both runs use "
                             "(default strip)")
    parser.add_argument("--rebalance", action="store_true",
                        help="enable dynamic tile rebalancing in both "
                             "runs (needs --partition tile)")
    parser.add_argument("--artifacts", type=Path,
                        default=REPO_ROOT / "shard-divergence",
                        help="directory for divergence dumps "
                             "(default: shard-divergence/)")
    args = parser.parse_args(argv)
    if args.shards < 2:
        parser.error(f"--shards must be >= 2 to compare, got {args.shards}")
    if args.rebalance and args.partition != "tile":
        parser.error("--rebalance needs --partition tile")
    return args


def _timed_run(name: str, *, shards: int, processes: bool, partition: str,
               rebalance: bool) -> tuple[ShardedResult, float]:
    runner = ShardedRunner(SCENARIOS[name], shards,
                           processes=processes, collect_logs=True,
                           verify_ghosts=True, partition=partition,
                           rebalance=rebalance)
    start = time.perf_counter()
    result = runner.run()
    return result, time.perf_counter() - start


def check_scenario(name: str, shards: int, artifacts: Path, *,
                   partition: str = "strip",
                   rebalance: bool = False) -> bool:
    """Run the pair, compare, dump artifacts on divergence."""
    single, wall_single = _timed_run(name, shards=1, processes=False,
                                     partition=partition,
                                     rebalance=rebalance)
    sharded, wall_sharded = _timed_run(name, shards=shards, processes=True,
                                       partition=partition,
                                       rebalance=rebalance)
    label_a, label_b = "shards1", f"shards{shards}"
    problems = compare_results(single, sharded,
                               label_a=label_a, label_b=label_b)
    print(f"  {name:20s} events {single.events:>9d} vs {sharded.events:>9d}  "
          f"migrations {sharded.migrations:>5d}  "
          f"ghost_peak {sharded.ghost_peak:>4d}  "
          f"rebalances {sharded.rebalances:>3d}  "
          f"imb {sharded.imbalance_factor:5.2f}  "
          f"wall {wall_single:6.2f}s vs {wall_sharded:6.2f}s", flush=True)
    if not problems:
        return True
    print(f"DIVERGENCE in {name} (1 vs {shards} shards):", file=sys.stderr)
    for problem in problems:
        print(f"  - {problem}", file=sys.stderr)
    written = write_divergence_artifacts(artifacts, name, single, sharded,
                                         problems,
                                         label_a=label_a, label_b=label_b)
    for path in written:
        print(f"  wrote {path}", file=sys.stderr)
    return False


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    names = args.scenarios or list(DEFAULT_SCENARIOS)
    detail = args.partition + (" + rebalance" if args.rebalance else "")
    print(f"checking {len(names)} scenario(s), 1 vs {args.shards} shards "
          f"({detail})...")
    ok = True
    for name in names:
        ok = check_scenario(name, args.shards, args.artifacts,
                            partition=args.partition,
                            rebalance=args.rebalance) and ok
    if ok:
        print(f"sharded-equivalence OK ({len(names)} scenario(s), "
              f"--shards {args.shards} == --shards 1)")
        return 0
    print("sharded-equivalence FAILED; artifacts in "
          f"{args.artifacts}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
