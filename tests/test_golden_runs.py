"""Golden runs: what the model computes today equals the committed values.

Shardcheck compares a sharded run with the one-shard run of the same
code, and the lockstep oracles compare two paths of the same code, so a
change that moves both sides alike passes them all: one ulp in a walker
step, say.  These runs compare today's results with values committed
beside them.  Each pins the walkers' final positions as well as what
discovery made of them, because a one-ulp drift seldom flips a
neighbour set.

A change that moves a value on purpose updates it here and names the
model change in CHANGES.md.  Every value is the same on CPython 3.10,
3.11 and 3.12; if one interpreter disagrees, find and remove the
version dependence rather than pinning values per version.

The module needs only the standard library and ``repro``, so the same
figures can be printed under any interpreter::

    PYTHONPATH=src:. python -c "from tests.test_golden_runs import *; \\
        print(crowd_figures()); print(clustered_figures())"
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from contextlib import contextmanager

from repro.eval.metrics import discovery_stats
from repro.eval.testbed import Testbed
from repro.eval.workloads import crowd_bounds, populate_crowd
from repro.shard import SCENARIOS, ShardedRunner, interaction_digests
from repro.shard.engine import ShardSim


def _sha256(items) -> str:
    """Digest of the ``repr`` of each item, in order."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def crowd_figures(members: int = 64, seconds: float = 30.0) -> dict:
    """A full-stack crowd: a quarter of it on :class:`RandomWalk`."""
    bed = Testbed(seed=11, bounds=crowd_bounds(members), scan_interval=1.0)
    crowd = populate_crowd(bed, members, shared_interest="music")
    bed.run(seconds)
    groups = [tuple(sorted(member.app.group_members("music")))
              for member in crowd]
    figures = {
        "events": bed.env.events_processed,
        "probes": sum(discovery_stats(member.app.engine).probes
                      for member in crowd),
        "groups": _sha256(groups),
        "positions": _sha256((node.node_id, node.position.x, node.position.y)
                             for node in bed.world),
    }
    bed.stop()
    return figures


@contextmanager
def _final_positions() -> Iterator[list[tuple[str, float, float]]]:
    """Record every shard's owned devices where the run leaves them."""
    positions: list[tuple[str, float, float]] = []
    stop = ShardSim.stop

    def recording_stop(sim: ShardSim) -> None:
        for device_id in sim.owned:
            position = sim.world.node(device_id).position
            positions.append((device_id, position.x, position.y))
        stop(sim)

    ShardSim.stop = recording_stop
    try:
        yield positions
    finally:
        ShardSim.stop = stop


def clustered_figures() -> dict:
    """``crowd_clustered_n256`` on four inline shards, tile + rebalance."""
    runner = ShardedRunner(SCENARIOS["crowd_clustered_n256"], 4,
                           processes=False, partition="tile",
                           rebalance=True)
    with _final_positions() as positions:
        result = runner.run()
    assert result.logs is not None
    return {
        "events": result.events,
        "migrations": result.migrations,
        "ghost_peak": result.ghost_peak,
        "rebalances": result.rebalances,
        "tiles_migrated": result.tiles_migrated,
        "logs": _sha256(sorted(interaction_digests(result.logs).items())),
        "positions": _sha256(sorted(positions)),
    }


def test_crowd_discovery_64_members():
    assert crowd_figures() == {
        "events": 4_502,
        "probes": 248,
        "groups": ("7d806e2e96354392d1156cb45a1e56c3"
                   "d16b58aa8faee51032d84f83491a7e0b"),
        "positions": ("c1efe39502c845a9cccc59e8de0386b1"
                      "55f0daca7e795b0a8dacaa14a762ddad"),
    }


def test_crowd_clustered_n256_tile_rebalance():
    assert clustered_figures() == {
        "events": 119_338,
        "migrations": 96,
        "ghost_peak": 106,
        "rebalances": 3,
        "tiles_migrated": 5,
        "logs": ("bb15acfca687d06d507a810a04d655dc"
                 "1671aa8aa50a068e5cfc70ea6d9fac6e"),
        "positions": ("daa907d4f5c22b02567aafc230b8ca85"
                      "e71629c86cbacd9edcc22808dc8097ac"),
    }
