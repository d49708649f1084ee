"""Parameter sweeps over neighbourhood shape.

Three sweeps the thesis' analysis invites but never runs:

* **Density** — how does the time to a *complete* group (every
  co-interested neighbour discovered) grow with neighbourhood size?
  Bluetooth inquiry slows with responder count and every member costs
  a probe, so formation is super-linear in crowd size.
* **Interest fragmentation** — with a fixed crowd, how does the size
  of the interest vocabulary fragment the neighbourhood into many
  small groups (the §5.2.6 problem grown to population scale)?
* **Hotspot concentration** — as a city crowd piles into venue
  hotspots, how fast does the strip partition's shard imbalance grow,
  and how much of it does the tile rebalancer claw back?

Each sweep point is an independent seed-deterministic simulation, so
sweeps fan out across worker processes (``jobs=N``) through
:func:`repro.eval.parallel.parallel_map` and merge back in input
order — byte-identical to the serial run.  (The hotspot sweep records
only simulation-derived load figures, never wall clocks, to keep that
invariant.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.parallel import parallel_map
from repro.eval.testbed import Testbed
from repro.eval.workloads import (INTEREST_POOL, populate_neighborhood,
                                  random_interests)
from repro.shard import ShardedRunner, clustered_workload


@dataclass(frozen=True)
class DensityPoint:
    """One neighbourhood-size measurement.

    Attributes:
        members: Total devices in the cluster.
        complete_at_s: Virtual time until the observer's shared group
            contained every other member.
        bytes_sent: Radio traffic the observer emitted getting there.
    """

    members: int
    complete_at_s: float
    bytes_sent: int


def density_point(count: int, seed: int = 0, *,
                  technologies: tuple[str, ...] = ("bluetooth",),
                  radius: float = 8.0,
                  deadline_s: float = 600.0) -> DensityPoint:
    """Formation-completeness time for one cluster size.

    ``technologies``/``radius`` widen the cluster past Bluetooth scale:
    the historical sweep packs everyone inside a 8 m Bluetooth huddle,
    while 64+ members need WLAN range (``radius`` up to ~55 m) to be a
    single connected neighbourhood.
    """
    bed = Testbed(seed=seed, technologies=technologies)
    members = populate_neighborhood(bed, count, shared_interest="football",
                                    radius=radius)
    observer = members[0]
    expected = {member.member_id for member in members}
    complete_at = bed.wait_for_groups(
        observer, lambda: set(observer.app.group_members("football")) == expected,
        timeout=deadline_s - bed.env.now)
    adapter = bed.medium.adapter(observer.device_id, technologies[0])
    point = DensityPoint(count, complete_at, adapter.bytes_sent)
    bed.stop()
    return point


def _density_task(task: tuple) -> DensityPoint:
    """Picklable per-point unit for the parallel runner."""
    count, seed, technologies, radius, deadline_s = task
    return density_point(count, seed, technologies=tuple(technologies),
                         radius=radius, deadline_s=deadline_s)


def density_sweep(counts: tuple[int, ...] = (2, 4, 8, 12),
                  seed: int = 0, *,
                  technologies: tuple[str, ...] = ("bluetooth",),
                  radius: float = 8.0,
                  deadline_s: float = 600.0,
                  jobs: int = 1) -> list[DensityPoint]:
    """Formation-completeness time as the crowd grows."""
    tasks = [(count, seed, technologies, radius, deadline_s)
             for count in counts]
    return parallel_map(_density_task, tasks, jobs=jobs)


@dataclass(frozen=True)
class FragmentationPoint:
    """One vocabulary-size measurement.

    Attributes:
        pool_size: Distinct interests in circulation.
        groups: Non-empty groups the observer sees.
        largest_group: Size of the observer's biggest group.
        singleton_groups: Groups holding only the observer.
    """

    pool_size: int
    groups: int
    largest_group: int
    singleton_groups: int


def fragmentation_point(pool_size: int, members: int = 10,
                        seed: int = 0) -> FragmentationPoint:
    """Group fragmentation for one vocabulary size."""
    pool = INTEREST_POOL[:pool_size]
    bed = Testbed(seed=seed, technologies=("bluetooth",))
    rng = bed.env.random.stream("fragmentation")
    handles = []
    for index in range(members):
        # The observer (index 0) holds the whole vocabulary so every
        # group in the room is visible from one device.
        interests = (list(pool) if index == 0
                     else random_interests(rng, minimum=1,
                                           maximum=min(3, pool_size),
                                           pool=pool))
        handles.append(bed.add_member(f"m{index:02d}", interests))
    bed.run(90.0)
    observer = handles[0]
    groups = observer.app.engine.groups.non_empty()
    sizes = [len(group) for group in groups]
    point = FragmentationPoint(
        pool_size=pool_size,
        groups=len(groups),
        largest_group=max(sizes) if sizes else 0,
        singleton_groups=sum(1 for size in sizes if size == 1))
    bed.stop()
    return point


def _fragmentation_task(task: tuple) -> FragmentationPoint:
    """Picklable per-point unit for the parallel runner."""
    pool_size, members, seed = task
    return fragmentation_point(pool_size, members, seed)


def fragmentation_sweep(pool_sizes: tuple[int, ...] = (2, 4, 8, 12),
                        members: int = 10,
                        seed: int = 0, *,
                        jobs: int = 1) -> list[FragmentationPoint]:
    """Group fragmentation as the interest vocabulary grows."""
    tasks = [(pool_size, members, seed) for pool_size in pool_sizes]
    return parallel_map(_fragmentation_task, tasks, jobs=jobs)


@dataclass(frozen=True)
class HotspotPoint:
    """One hotspot-concentration measurement.

    Attributes:
        hot_fraction: Share of the crowd packed into venue hotspots
            (the rest is uniform background).
        strip_imbalance: Per-shard event imbalance (max/mean over the
            run) under the static strip partition.
        tile_imbalance: Same figure under the tile partition with the
            dynamic rebalancer on.
        rebalances: Windows at which the rebalancer changed the map.
        tiles_migrated: Total tile reassignments across the run.
        events: Discovery events processed (identical for both
            partitions — the geometry never changes the physics).
    """

    hot_fraction: float
    strip_imbalance: float
    tile_imbalance: float
    rebalances: int
    tiles_migrated: int
    events: int


def hotspot_point(hot_fraction: float, count: int = 256, *,
                  shards: int = 4, seed: int = 13) -> HotspotPoint:
    """Strip-vs-tile shard imbalance at one crowd concentration.

    The workload is the "main street" geometry the clustered bench
    scenarios use: four Gaussian hotspots sharing one vertical strip
    (tight x-spread) but spread out in y — the shape a strip partition
    cannot separate and a 2D tiling can.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError(f"hot_fraction must be in [0, 1], "
                         f"got {hot_fraction!r}")
    workload = clustered_workload(count, seed=seed, sim_seconds=12.0,
                                  clusters=4, hot_fraction=hot_fraction,
                                  center_spread=0.05, center_spread_y=0.3,
                                  scan_interval=2.0, window=1.0)
    # Inline scheduler: byte-identical to spawned workers, and sweep
    # points already fan out one process each under ``jobs=N`` (nested
    # spawn is off-limits inside pool workers anyway).
    strip = ShardedRunner(workload, shards, processes=False,
                          collect_logs=False).run()
    tile = ShardedRunner(workload, shards, processes=False,
                         collect_logs=False, partition="tile",
                         rebalance=True).run()
    if tile.events != strip.events:  # pragma: no cover - equivalence gate
        raise RuntimeError(f"partition changed the physics: strip "
                           f"{strip.events} vs tile {tile.events} events")
    return HotspotPoint(hot_fraction=hot_fraction,
                        strip_imbalance=round(strip.imbalance_factor, 4),
                        tile_imbalance=round(tile.imbalance_factor, 4),
                        rebalances=tile.rebalances,
                        tiles_migrated=tile.tiles_migrated,
                        events=strip.events)


def _hotspot_task(task: tuple) -> HotspotPoint:
    """Picklable per-point unit for the parallel runner."""
    hot_fraction, count, shards, seed = task
    return hotspot_point(hot_fraction, count, shards=shards, seed=seed)


def hotspot_sweep(hot_fractions: tuple[float, ...] = (0.0, 0.3, 0.6, 0.9),
                  count: int = 256, *,
                  shards: int = 4,
                  seed: int = 13,
                  jobs: int = 1) -> list[HotspotPoint]:
    """Shard imbalance as the crowd concentrates into hotspots."""
    tasks = [(hot_fraction, count, shards, seed)
             for hot_fraction in hot_fractions]
    return parallel_map(_hotspot_task, tasks, jobs=jobs)
