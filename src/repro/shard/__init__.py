"""Sharded single-world simulation (``repro.shard``).

``repro.eval.parallel`` fans *independent* runs across processes; this
package partitions **one** simulated world across worker processes.
The spatial grid's plane is split by a tile partition — a 2D grid of
tiles with an explicit tile→shard map, of which equal-width vertical
strips are the one-row preset — each shard owning the devices inside
its territory: their slice of the event queue (a per-shard
:class:`~repro.simenv.environment.Environment`), their movement, their
discovery scans and their cached medium state (a per-shard
:class:`~repro.radio.medium.Medium`).

Shards run a conservative time-windowed synchronisation protocol: the
radio range bounds how far apart two interacting devices can be, so a
shard only needs *border state* — devices within one halo width of its
territory — and only at window edges.  The halo width is the lookahead
bound ``radio_range + 2 * max_speed * window``: within one window a
device and a potential neighbour can close at most ``2 * max_speed *
window`` metres, so any pair that could interact during the window is
covered by the exchange that opened it (DESIGN.md §9 gives the full
argument).

The tile map also supports **dynamic re-balancing** (DESIGN.md §11):
shards report per-tile load counters at each window edge and the
coordinator may reassign whole tiles to other shards, broadcasting the
new map at the sync barrier so the ordinary migration machinery moves
the affected devices.  The map only decides *where*
work happens, never what happens, so rebalanced runs stay bit-exact.

Determinism is the contract: a run at any shard count, under any
partition, with or without rebalancing, produces the identical
per-device interaction log and device-event count as the single-shard
run and as the unsharded reference simulation, because ghost replicas
advance through exactly the same float arithmetic as their originals.
``tests/test_shard_engine.py`` pins this against a lockstep oracle and
Hypothesis-generated border-crossing trajectories; CI's
``sharded-equivalence`` job enforces it on every PR via
``scripts/shardcheck.py``.
"""

from repro.shard.balance import (REBALANCE_THRESHOLD, imbalance,
                                 rebalance_map, shard_loads)
from repro.shard.devices import (DeviceState, DriftWalk, SeededWalk,
                                 build_clustered_crowd, build_crowd)
from repro.shard.engine import ShardConfig, ShardSim
from repro.shard.equivalence import (compare_results, interaction_digests,
                                     write_divergence_artifacts)
from repro.shard.partition import (PARTITION_KINDS, PartitionSpec,
                                   TilePartition, default_tile_map,
                                   halo_width, plan_tile_grid, spec_for)
from repro.shard.runner import (SCENARIOS, ClusteredWorkload,
                                ShardedResult, ShardedRunner, ShardWorkload,
                                clustered_workload, crowd_workload,
                                reference_run)

__all__ = [
    "ClusteredWorkload",
    "DeviceState",
    "DriftWalk",
    "PARTITION_KINDS",
    "PartitionSpec",
    "REBALANCE_THRESHOLD",
    "SCENARIOS",
    "SeededWalk",
    "ShardConfig",
    "ShardSim",
    "ShardWorkload",
    "ShardedResult",
    "ShardedRunner",
    "TilePartition",
    "build_clustered_crowd",
    "build_crowd",
    "clustered_workload",
    "compare_results",
    "crowd_workload",
    "default_tile_map",
    "halo_width",
    "imbalance",
    "interaction_digests",
    "plan_tile_grid",
    "rebalance_map",
    "reference_run",
    "shard_loads",
    "spec_for",
    "write_divergence_artifacts",
]
