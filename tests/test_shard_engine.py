"""The sharded engine must be invisible in the results.

The contract under test: for any workload, a sharded run at any shard
count produces the *identical* device-event count and per-device
interaction log as :func:`repro.shard.runner.reference_run` — a
deliberately separate single-world code path with no partitioning,
windows or ghosts.  The oracle tests pin fixed workloads at several
shard counts (with ``verify_ghosts=True`` so any replica drift raises
instead of silently shifting a neighbour set); the Hypothesis property
randomises crowd shape, walker speed and window length; and the
adversarial case parks a device that teleports across a strip border
every single tick, the worst case for the migration/ghost machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.mobility.geometry import Point, Rect
from repro.mobility.models import Stationary
from repro.mobility.world import World
from repro.shard import (ShardWorkload, ShardedRunner, clustered_workload,
                         compare_results, crowd_workload,
                         interaction_digests, reference_run)
from repro.shard import runner as runner_module
from repro.shard.devices import DeviceState, SeededWalk
from repro.shard.engine import GhostDivergenceError, ShardSim
from repro.shard.partition import TilePartition
from repro.shard.runner import _WindowStats

#: Shard counts every oracle comparison covers: trivial, even splits
#: and a count that does not divide the bounds evenly.
SHARD_COUNTS = (1, 2, 4, 7)

#: Fixed oracle workload: small enough to run four times per test,
#: dense enough (50 m pitch vs 60 m radio) for real interactions, and
#: walker-heavy so devices actually cross strip borders.
ORACLE = crowd_workload(24, seed=7, sim_seconds=20.0, walker_fraction=0.5)


def run_sharded(workload: ShardWorkload, shards: int, *,
                processes: bool = False, partition: str = "strip",
                rebalance: bool = False) -> object:
    return ShardedRunner(workload, shards, processes=processes,
                         collect_logs=True, verify_ghosts=True,
                         partition=partition, rebalance=rebalance).run()


class TestLockstepOracle:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_sharded_equals_reference(self, shards):
        reference = reference_run(ORACLE)
        sharded = run_sharded(ORACLE, shards)
        problems = compare_results(reference, sharded,
                                   label_a="reference",
                                   label_b=f"shards{shards}")
        assert problems == []

    def test_oracle_workload_is_non_trivial(self):
        """Guard the guard: the oracle must exercise real interactions
        and real border traffic, or the equivalence checks above pass
        vacuously."""
        reference = reference_run(ORACLE)
        assert reference.events > 0
        assert reference.logs
        assert any(entries and entries[-1][1]
                   for entries in reference.logs.values())
        sharded = run_sharded(ORACLE, 4)
        assert sharded.ghost_peak > 0

    def test_strip_preset_reports_its_name_and_tile_count(self):
        """``strip`` is the one-row tile grid: one tile per shard."""
        sharded = run_sharded(ORACLE, 4)
        assert sharded.partition == "strip"
        assert sharded.tiles == 4

    def test_event_totals_are_shard_count_invariant(self):
        totals = {shards: run_sharded(ORACLE, shards).events
                  for shards in SHARD_COUNTS}
        assert len(set(totals.values())) == 1, totals

    def test_digests_match_across_shard_counts(self):
        reference = interaction_digests(reference_run(ORACLE).logs)
        for shards in SHARD_COUNTS:
            assert interaction_digests(
                run_sharded(ORACLE, shards).logs) == reference


class TestProcessMode:
    def test_spawned_workers_match_reference(self):
        """The production scheduler (one OS process per shard) must
        produce the same bytes as the in-process one."""
        workload = crowd_workload(24, seed=13, sim_seconds=15.0,
                                  walker_fraction=0.5)
        reference = reference_run(workload)
        sharded = ShardedRunner(workload, 2, processes=True,
                                collect_logs=True).run()
        assert compare_results(reference, sharded, label_a="reference",
                               label_b="processes") == []


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(count=st.integers(min_value=4, max_value=20),
       seed=st.integers(min_value=0, max_value=2**32),
       walker_speed=st.floats(min_value=0.5, max_value=4.0),
       window=st.sampled_from([2.5, 5.0]),
       shards=st.sampled_from(SHARD_COUNTS))
def test_random_walks_property(count, seed, walker_speed, window, shards):
    """Random crowds with border-crossing walkers: any shard count
    reproduces the reference neighbour sets exactly."""
    workload = crowd_workload(count, seed=seed, sim_seconds=10.0,
                              walker_fraction=1.0,
                              walker_speed=walker_speed, window=window)
    reference = reference_run(workload)
    sharded = run_sharded(workload, shards)
    assert compare_results(reference, sharded, label_a="reference",
                           label_b=f"shards{shards}") == []


class BorderHopper:
    """Mobility model that teleports across a strip border every tick.

    Alternates between ``center - amplitude`` and ``center + amplitude``
    — with ``center`` on a shard border this forces an ownership
    re-evaluation at every window edge and keeps the device permanently
    inside two shards' halos.  State is one sign flag, so a pickled
    replica resumes the identical trajectory.
    """

    def __init__(self, center: float, y: float, amplitude: float) -> None:
        self.center = center
        self.y = y
        self.amplitude = amplitude
        self._sign = 1.0

    def step(self, position: Point, dt: float) -> Point:
        self._sign = -self._sign
        return Point(self.center + self._sign * self.amplitude, self.y)


@dataclass(frozen=True)
class HopperWorkload(ShardWorkload):
    """Adversarial workload: one border hopper plus fixed observers."""

    def build_devices(self) -> list[DeviceState]:
        border = self.bounds.min_x + self.bounds.width / 4.0  # 4-shard edge
        y = self.bounds.height / 2.0
        hopper = DeviceState(
            device_id="hopper", x=border - 5.0, y=y,
            model=BorderHopper(center=border, y=y, amplitude=5.0))
        observers = [
            DeviceState(device_id="obs_left", x=border - 30.0, y=y),
            DeviceState(device_id="obs_right", x=border + 30.0, y=y),
            DeviceState(device_id="obs_far", x=border + 150.0, y=y),
        ]
        walker = DeviceState(
            device_id="walker", x=border + 20.0, y=y - 20.0,
            model=SeededWalk(self.bounds, self.walker_speed, seed=99))
        return [hopper, *observers, walker]


#: walker_speed doubles as the halo's max-speed bound, so it must
#: cover the hopper's 10 m-per-1 s-tick teleport.
HOPPER = HopperWorkload(count=5, seed=3, sim_seconds=30.0,
                        bounds=Rect(0.0, 0.0, 400.0, 400.0),
                        walker_speed=12.0)


class TestBorderHopper:
    def test_oscillating_device_is_adversarial(self):
        """The scenario must actually hammer the border machinery."""
        sharded = run_sharded(HOPPER, 4)
        assert sharded.migrations > 0
        assert sharded.ghost_peak > 0
        # Both near observers keep seeing the hopper; the far one never does.
        logs = sharded.logs
        assert any("hopper" in entry[1] for entry in logs["obs_left"])
        assert any("hopper" in entry[1] for entry in logs["obs_right"])
        assert all("hopper" not in entry[1] for entry in logs["obs_far"])

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_hopper_equals_reference(self, shards):
        reference = reference_run(HOPPER)
        sharded = run_sharded(HOPPER, shards)
        assert compare_results(reference, sharded, label_a="reference",
                               label_b=f"shards{shards}") == []


# -- tile partitions and rebalancing ----------------------------------------

#: Clustered oracle: four hotspots on a "main street" so the tile
#: rebalancer actually fires (guarded below) while staying small enough
#: to run at several shard counts per test.  Non-zero drift exercises
#: the flash-crowd mobility (DriftWalk) through the ghost-exactness
#: machinery too.
CLUSTERED = clustered_workload(48, seed=13, sim_seconds=20.0, clusters=4,
                               center_spread=0.05, center_spread_y=0.3,
                               scan_interval=2.0, window=1.0,
                               drift_speed=1.0)


class TestTileOracle:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_tile_sharded_equals_reference(self, shards):
        reference = reference_run(ORACLE)
        sharded = run_sharded(ORACLE, shards, partition="tile")
        assert compare_results(reference, sharded, label_a="reference",
                               label_b=f"tile{shards}") == []

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_rebalancing_run_equals_reference(self, shards):
        """Live tile migrations mid-run must be invisible in the
        results — the map only decides *where* work happens."""
        reference = reference_run(CLUSTERED)
        sharded = run_sharded(CLUSTERED, shards, partition="tile",
                              rebalance=True)
        assert compare_results(reference, sharded, label_a="reference",
                               label_b=f"rebalance{shards}") == []

    def test_rebalancer_actually_fires(self):
        """Guard the guard: the clustered oracle must trigger real tile
        reassignments, or the equivalence above passes vacuously."""
        sharded = run_sharded(CLUSTERED, 4, partition="tile",
                              rebalance=True)
        assert sharded.rebalances > 0
        assert sharded.tiles_migrated > 0
        assert sharded.partition == "tile"
        assert sharded.tiles > 4

    def test_spawned_tile_workers_match_reference(self):
        reference = reference_run(CLUSTERED)
        sharded = ShardedRunner(CLUSTERED, 2, processes=True,
                                collect_logs=True, partition="tile",
                                rebalance=True).run()
        assert compare_results(reference, sharded, label_a="reference",
                               label_b="tile-processes") == []

    def test_rebalance_requires_tile_partition(self):
        with pytest.raises(ValueError):
            ShardedRunner(ORACLE, 2, rebalance=True)


class CornerHopper:
    """Mobility model that teleports across a four-tile corner.

    Alternates diagonally between ``(cx - a, cy - a)`` and
    ``(cx + a, cy + a)`` — with the centre on a tile-grid corner every
    tick crosses tile boundaries in *both* axes at once, the case strip
    partitions never face and the 2D ghost box must cover.
    """

    def __init__(self, cx: float, cy: float, amplitude: float) -> None:
        self.cx = cx
        self.cy = cy
        self.amplitude = amplitude
        self._sign = 1.0

    def step(self, position: Point, dt: float) -> Point:
        self._sign = -self._sign
        return Point(self.cx + self._sign * self.amplitude,
                     self.cy + self._sign * self.amplitude)


@dataclass(frozen=True)
class CornerWorkload(ShardWorkload):
    """Adversarial workload: a corner hopper plus quadrant observers."""

    def build_devices(self) -> list[DeviceState]:
        cx = self.bounds.min_x + self.bounds.width / 2.0
        cy = self.bounds.min_y + self.bounds.height / 2.0
        hopper = DeviceState(
            device_id="hopper", x=cx - 5.0, y=cy - 5.0,
            model=CornerHopper(cx=cx, cy=cy, amplitude=5.0))
        observers = [
            DeviceState(device_id="obs_sw", x=cx - 30.0, y=cy - 30.0),
            DeviceState(device_id="obs_ne", x=cx + 30.0, y=cy + 30.0),
            DeviceState(device_id="obs_far", x=cx + 150.0, y=cy + 150.0),
        ]
        walker = DeviceState(
            device_id="walker", x=cx + 20.0, y=cy - 20.0,
            model=SeededWalk(self.bounds, self.walker_speed, seed=99))
        return [hopper, *observers, walker]


#: Same speed bound as HOPPER: it must cover the diagonal teleport.
CORNER = CornerWorkload(count=5, seed=3, sim_seconds=30.0,
                        bounds=Rect(0.0, 0.0, 400.0, 400.0),
                        walker_speed=12.0)


class TestCornerHopper:
    def test_diagonal_crossings_are_adversarial(self):
        """The hopper must hammer tile borders diagonally and stay
        visible from both touching quadrants — never from afar."""
        sharded = run_sharded(CORNER, 4, partition="tile")
        assert sharded.migrations > 0
        assert sharded.ghost_peak > 0
        logs = sharded.logs
        assert any("hopper" in entry[1] for entry in logs["obs_sw"])
        assert any("hopper" in entry[1] for entry in logs["obs_ne"])
        assert all("hopper" not in entry[1] for entry in logs["obs_far"])

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_corner_hopper_equals_reference(self, shards):
        reference = reference_run(CORNER)
        sharded = run_sharded(CORNER, shards, partition="tile")
        assert compare_results(reference, sharded, label_a="reference",
                               label_b=f"corner{shards}") == []


@dataclass(frozen=True)
class OutsideWorkload(ShardWorkload):
    """A stationary device created 30 m outside the bounds, which the
    world clamps onto the west edge, and an observer 55 m east of it."""

    def build_devices(self) -> list[DeviceState]:
        return [DeviceState(device_id="far", x=-30.0, y=100.0),
                DeviceState(device_id="obs", x=55.0, y=100.0)]


OUTSIDE = OutsideWorkload(count=2, seed=0, sim_seconds=5.0,
                          bounds=Rect(0.0, 0.0, 200.0, 200.0), tick=1.0,
                          scan_interval=1.0, window=1.0)


def test_device_outside_the_bounds_is_split_where_the_world_puts_it():
    """The initial split must route a device at its clamped position:
    from its raw one, ``far`` was ghosted to no shard and missing from
    ``obs``'s first scan in shard 1."""
    reference = reference_run(OUTSIDE)
    assert reference.events == 20
    assert reference.logs is not None
    assert reference.logs["obs"][0] == (0.5, ("far",))
    sharded = run_sharded(OUTSIDE, 4)
    assert compare_results(reference, sharded, label_a="reference",
                           label_b="shards4") == []


# -- the delta ghost exchange -------------------------------------------------

#: A crowd where nothing moves: every border ghost persists from window
#: to window, the case the kept entries exist for.
STATIONARY = crowd_workload(24, seed=7, sim_seconds=12.0, walker_fraction=0.0,
                            scan_interval=2.0, window=1.0)


def _spy_handovers(monkeypatch) -> tuple[list[str], list[str]]:
    """Record the kept entries a device's new owner sends at its first
    edge (the device changed owner since the last edge), and every
    snapshot that arrives for a ghost its destination already holds."""
    handed_over: list[str] = []
    resent: list[str] = []
    last_owner: dict[str, int] = {}
    collect = ShardSim.collect_exchange
    apply = ShardSim.apply_exchange

    def collecting(sim):
        exchange = collect(sim)
        handed_over.extend(
            device_id for _, (device_id, _, _) in exchange.kept
            if last_owner.get(device_id, sim.shard_id) != sim.shard_id)
        last_owner.update((device_id, sim.shard_id) for device_id in sim.owned)
        return exchange

    def applying(sim, immigrants, snapshots, kept, tile_map=None):
        resent.extend(state.device_id for state in snapshots
                      if state.device_id in sim.ghosts)
        return apply(sim, immigrants, snapshots, kept, tile_map)

    monkeypatch.setattr(ShardSim, "collect_exchange", collecting)
    monkeypatch.setattr(ShardSim, "apply_exchange", applying)
    return handed_over, resent


class TestDeltaExchange:
    @pytest.mark.parametrize("partition", ["strip", "tile"])
    def test_stationary_crowd_ships_only_kept_entries(self, monkeypatch,
                                                      partition):
        """The exporter's record starts from the initial split, so a
        crowd that never moves ships no snapshot at any window edge."""
        seen: list[tuple[int, int]] = []
        collect = ShardSim.collect_exchange

        def spy(sim):
            exchange = collect(sim)
            seen.append((len(exchange.snapshots), len(exchange.kept)))
            return exchange

        monkeypatch.setattr(ShardSim, "collect_exchange", spy)
        sharded = run_sharded(STATIONARY, 4, partition=partition)
        assert seen and all(snapshots == 0 for snapshots, _ in seen)
        assert sum(kept for _, kept in seen) > 0
        assert compare_results(reference_run(STATIONARY), sharded,
                               label_a="reference",
                               label_b=f"stationary-{partition}") == []

    @pytest.mark.parametrize("tamper", ["move", "drop"])
    def test_diverged_kept_ghost_raises(self, monkeypatch, tamper):
        """A kept entry vouches for the receiver's live replica, so
        ``verify_ghosts`` must catch a replica that moved or vanished."""
        run_window = ShardSim.run_window

        def tampering(sim, until):
            run_window(sim, until)
            if sim.shard_id == 1 and until == 1.0:
                ghost_id = min(sim.ghosts)
                if tamper == "move":
                    local = sim.world.node(ghost_id).position
                    sim.world.move_node(ghost_id,
                                        Point(local.x + 1.0, local.y))
                else:
                    sim._uninstall([ghost_id])
                    del sim.ghosts[ghost_id]

        monkeypatch.setattr(ShardSim, "run_window", tampering)
        with pytest.raises(GhostDivergenceError):
            run_sharded(STATIONARY, 2)

    def test_migrating_owner_keeps_ghosts_and_matches_reference(
            self, monkeypatch):
        """The corner hopper changes owner every window, and its export
        record moves with it: the new owner's kept entries vouch for the
        replicas the destinations hold (``verify_ghosts`` checks each),
        and no snapshot lands on one."""
        handed_over, resent = _spy_handovers(monkeypatch)
        sharded = run_sharded(CORNER, 4, partition="tile")
        assert "hopper" in handed_over
        assert resent == []
        assert compare_results(reference_run(CORNER), sharded,
                               label_a="reference",
                               label_b="corner-handover") == []

    def test_rebalance_retarget_keeps_ghosts_and_matches_reference(
            self, monkeypatch):
        """With nobody moving, every migration is a rebalanced tile
        changing hands, and its devices' ghosts stay kept entries."""
        still = clustered_workload(48, seed=13, sim_seconds=12.0,
                                   clusters=4, center_spread=0.05,
                                   center_spread_y=0.3, scan_interval=2.0,
                                   window=1.0, walker_fraction=0.0)
        handed_over, resent = _spy_handovers(monkeypatch)
        sharded = run_sharded(still, 4, partition="tile", rebalance=True)
        assert sharded.tiles_migrated > 0 and sharded.migrations > 0
        assert handed_over
        assert resent == []
        assert compare_results(reference_run(still), sharded,
                               label_a="reference",
                               label_b="rebalance-handover") == []


# -- scan scheduling -----------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(times=st.lists(st.floats(min_value=0.0, max_value=40.0),
                      min_size=1, max_size=20, unique=True).map(sorted),
       phases=st.lists(st.one_of(st.floats(min_value=0.0, max_value=5.0),
                                 st.sampled_from([0.1, 0.7, 1.0 / 3.0])),
                       min_size=1, max_size=4),
       edges=st.lists(st.floats(min_value=0.1, max_value=45.0),
                      min_size=1, max_size=8, unique=True).map(sorted))
# 3.2 + 0.7 rounds above 3.9 while 3.9 - 0.7 rounds to 3.2 exactly: the
# bisection alone would start one slot late and lose that scan.
@example(times=[1.2, 3.2, 5.2], phases=[0.7], edges=[3.9, 6.0])
# Phases 0.2 and 0.1 meet at 0.1 + 0.2 == 0.2 + 0.1 (and at 0.2), with
# d1 between d0 and d2 in owned order: the instant's devices must be
# merged, not concatenated phase by phase.
@example(times=[0.1, 0.2], phases=[0.2, 0.1, 0.2], edges=[0.5])
# Every instant a multiple of the 1 s world tick, two on window edges.
@example(times=[0.5, 1.5], phases=[0.5, 1.5], edges=[1.0, 3.0])
# Both slots of each device round to 1.0: d0, d0, d1, d1 at one instant.
@example(times=[0.0, 2.225073858507e-311], phases=[1.0, 1.0], edges=[1.0])
def test_run_window_schedules_exactly_the_slots_in_the_window(times, phases,
                                                              edges):
    """``run_window`` pushes one event per distinct scan instant, and
    its device lists, flattened in push order, fire the same ``(when,
    device)`` scans in the same order as one event per slot and device
    pushed device by device: every slot with ``start < base + phase <=
    until``, by time, then by push order."""
    config = replace(ShardedRunner(ORACLE, 1).config, scan_times=tuple(times))
    devices = [DeviceState(device_id=f"d{index}", x=10.0, y=10.0,
                           scan_phase=phase)
               for index, phase in enumerate(phases)]
    sim = ShardSim(config, 0, [(device, (), None) for device in devices], [])
    pushed: list[tuple[float, list[str]]] = []
    sim.env.call_at = lambda when, callback, device_ids: pushed.append(
        (when, list(device_ids)))
    sim.env.run = lambda until: sim.env.clock.advance_to(until)
    expected = []
    start = 0.0
    for until in edges:
        slots = [(base + device.scan_phase, device.device_id)
                 for device in devices for base in times
                 if start < base + device.scan_phase <= until]
        expected += sorted(slots, key=lambda slot: slot[0])
        sim.run_window(until)
        start = until
    assert [(when, device_id) for when, device_ids in pushed
            for device_id in device_ids] == expected
    instants = [when for when, _ in pushed]
    assert len(set(instants)) == len(instants)


@dataclass(frozen=True)
class PhasedWorkload(ShardWorkload):
    """A crowd whose devices scan on mixed phases, cycled by index."""

    phases: tuple[float, ...] = (0.0,)

    def build_devices(self) -> list[DeviceState]:
        devices = super().build_devices()
        for index, device in enumerate(devices):
            device.scan_phase = self.phases[index % len(self.phases)]
        return devices


#: On the 1 s schedule (0.5 + k), phases 0, 1 and 2 meet at one instant,
#: so do 0.25 and 1.25, and 0.1 and 1.1 where their float sums round
#: alike; no instant lands on a 1 s world tick, where the sharded and
#: reference event orders are not comparable.
PHASED = PhasedWorkload(count=24, seed=7, sim_seconds=20.0,
                        bounds=ORACLE.bounds, walker_fraction=0.5,
                        scan_interval=1.0, window=2.5,
                        phases=(0.0, 1.0, 0.25, 1.25, 0.1, 1.1, 2.0))


class TestScanInstants:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_colliding_phases_equal_reference(self, shards):
        reference = reference_run(PHASED)
        sharded = run_sharded(PHASED, shards)
        assert compare_results(reference, sharded, label_a="reference",
                               label_b=f"phased{shards}") == []

    def test_phases_collide(self):
        """Guard the guard: several phases must share scan instants
        and walkers must cross borders, or the case above is vacuous."""
        devices = PHASED.build_devices()
        phase_of = {device.device_id: device.scan_phase
                    for device in devices}
        phases_at: dict[float, set[float]] = {}
        for device_id, entries in reference_run(PHASED).logs.items():
            for when, _ in entries:
                phases_at.setdefault(when, set()).add(phase_of[device_id])
        assert sum(len(phases) > 1 for phases in phases_at.values()) > 10
        assert all(when != int(when) for when in phases_at)
        assert run_sharded(PHASED, 4).migrations > 0


# -- the movers-only window edge ---------------------------------------------


def full_walk_exchange(sim: ShardSim, since: float) -> dict:
    """What ``collect_exchange`` must return, found the long way.

    Routes every owned device where it stands, in owned order, against
    the ghost targets the previous edge exported it to, and books each
    device ``1 +`` the scan events its log shows since ``since`` to the
    tile it stands in.  A migrating walker carries its route box and
    tile; an emigrant's export to this shard, which keeps its node, is
    a kept entry.
    """
    halo = sim.config.halo
    migrations, snapshots, kept, emigrants = [], [], set(), []
    loads: dict[int, int] = {}
    for device_id in sim.owned:
        node = sim.world.node(device_id)
        x, y = node.position.x, node.position.y
        tile, owner, targets = sim.partition.route(x, y, halo)
        if owner != sim.shard_id:
            route = None
            if type(node.model) is not Stationary:
                route = (*sim.partition.route_box(x, y, halo), tile)
            migrations.append((owner, device_id, x, y, tuple(
                target for target in targets if target != owner), route))
            emigrants.append(device_id)
        held = sim._exported.get(device_id, ())
        for target in targets:
            if target == owner:
                continue
            if target in held or target == sim.shard_id:
                kept.add((target, (device_id, x, y)))
            else:
                snapshots.append((target, device_id, x, y))
        fired = sum(1 + len(listing)
                    for when, listing in sim.logs.get(device_id, ())
                    if when > since)
        loads[tile] = loads.get(tile, 0) + 1 + fired
    return {"migrations": sorted(migrations), "snapshots": sorted(snapshots),
            "kept": kept, "emigrants": emigrants,
            "tile_loads": loads if sim.config.rebalance else {}}


def _spy_edges(monkeypatch) -> list[tuple[dict, dict]]:
    """Pair every ``collect_exchange`` result with the full walk."""
    pairs: list[tuple[dict, dict]] = []
    collect = ShardSim.collect_exchange
    last_edge: dict[int, float] = {}

    def checked(sim):
        expected = full_walk_exchange(sim, last_edge.get(sim.shard_id, 0.0))
        exchange = collect(sim)
        last_edge[sim.shard_id] = sim.env.now
        assert len(set(exchange.kept)) == len(exchange.kept)
        pairs.append((expected, {
            "migrations": sorted(
                (target, state.device_id, state.x, state.y, ghost_targets,
                 route)
                for target, state, ghost_targets, route
                in exchange.migrations),
            "snapshots": sorted((target, state.device_id, state.x, state.y)
                                for target, state in exchange.snapshots),
            "kept": set(exchange.kept), "emigrants": list(sim._emigrant_ids),
            "tile_loads": exchange.tile_loads}))
        return exchange

    monkeypatch.setattr(ShardSim, "collect_exchange", checked)
    return pairs


@st.composite
def edge_cases(draw) -> ShardedRunner:
    """A clustered crowd on a tile grid under a scrambled map with
    islands: walkers, drifting hotspots or nobody moving, and a
    rebalancer that fires often."""
    workload = clustered_workload(
        draw(st.integers(min_value=8, max_value=40)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        sim_seconds=8.0, clusters=2, center_spread=0.05,
        center_spread_y=0.3, scan_interval=draw(st.sampled_from([1.0, 2.0])),
        window=1.0, drift_speed=draw(st.sampled_from([0.0, 3.0])),
        walker_fraction=draw(st.sampled_from([0.0, 0.25, 1.0])))
    shards = draw(st.integers(min_value=2, max_value=4))
    runner = ShardedRunner(workload, shards, processes=False,
                           partition="tile",
                           rebalance=draw(st.booleans()),
                           rebalance_threshold=draw(
                               st.sampled_from([1.0, 1.2])))
    tiles = runner.config.partition.tiles
    tile_map = draw(st.lists(st.integers(min_value=0, max_value=shards - 1),
                             min_size=tiles[0] * tiles[1],
                             max_size=tiles[0] * tiles[1]))
    runner.config = replace(runner.config, partition=replace(
        runner.config.partition, tile_map=tuple(tile_map)))
    return runner


#: A case that migrates walkers, adopts maps that move stationary
#: devices, and books stationary scans: every path of the edge.
BUSY_EDGES = ShardedRunner(
    clustered_workload(40, seed=13, sim_seconds=8.0, clusters=2,
                       center_spread=0.05, center_spread_y=0.3,
                       scan_interval=1.0, window=1.0, drift_speed=3.0),
    3, processes=False, partition="tile", rebalance=True,
    rebalance_threshold=1.0)


class TestMoversOnlyEdge:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(runner=edge_cases())
    @example(runner=BUSY_EDGES)
    def test_collect_equals_the_full_walk(self, runner):
        """Migrations, snapshots, the kept set, per-tile loads and the
        order emigrants leave in equal a walk over every owned device,
        at every edge of the run."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            pairs = _spy_edges(monkeypatch)
            sharded = runner.run()
        assert pairs
        for expected, collected in pairs:
            assert collected == expected
        assert compare_results(reference_run(runner.workload), sharded,
                               label_a="reference",
                               label_b="movers-only") == []

    def test_busy_case_reaches_every_path(self, monkeypatch):
        """Guard the guard: the explicit example must migrate, adopt a
        map that moves stationary devices, and book stationary scans."""
        pairs = _spy_edges(monkeypatch)
        adoptions = []
        adopt = ShardSim.adopt_tile_map

        def counting(sim, tile_map):
            adoptions.append(sim.partition.tile_map != tuple(tile_map))
            return adopt(sim, tile_map)

        monkeypatch.setattr(ShardSim, "adopt_tile_map", counting)
        result = BUSY_EDGES.run()
        assert result.rebalances > 0 and any(adoptions)
        stationary = {state.device_id
                      for state in BUSY_EDGES.workload.build_devices()
                      if state.model is None}
        emigrants = [device_id for expected, _ in pairs
                     for device_id in expected["emigrants"]]
        assert stationary & set(emigrants)
        assert set(emigrants) - stationary
        assert any(result.logs[device_id] for device_id in stationary)
        assert all(expected["tile_loads"] for expected, _ in pairs)


# -- the batched rebalance edge ----------------------------------------------


@st.composite
def remap_cases(draw) -> tuple[ShardedRunner, dict[int, list[tuple[int, int]]]]:
    """A drawn run, and the tiles the coordinator hands to drawn shards
    at drawn edges, on top of whatever map it holds."""
    runner = draw(edge_cases())
    columns, rows = runner.config.partition.tiles
    edges = len(runner.config.boundaries()) - 1
    moves = st.lists(st.tuples(st.integers(0, columns * rows - 1),
                               st.integers(0, runner.shards - 1)),
                     min_size=1, max_size=3)
    return runner, draw(st.dictionaries(st.integers(0, edges - 1), moves,
                                        max_size=edges))


def _remap(monkeypatch, remaps: dict[int, list[tuple[int, int]]]) -> None:
    """Have the coordinator reassign ``remaps[window]`` at those edges."""
    window = _WindowStats.window
    edges = [0]

    def remapping(stats, shard_stats):
        new_map = window(stats, shard_stats)
        moves = remaps.get(edges[0])
        edges[0] += 1
        if moves:
            tile_map = list(new_map or stats._tile_map)
            for tile, shard in moves:
                tile_map[tile] = shard
            new_map = stats._tile_map = tuple(tile_map)
        return new_map

    monkeypatch.setattr(_WindowStats, "window", remapping)


#: ``BUSY_EDGES`` with a few tiles moved by hand, on top of its own
#: rebalances.
BUSY_REMAPS = {1: [(7, 0), (12, 2)], 3: [(0, 1)], 4: [(18, 0), (19, 1)]}


class TestRemapEdge:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=remap_cases())
    @example(case=(BUSY_EDGES, BUSY_REMAPS))
    def test_collect_after_adoption_equals_the_full_walk(self, case):
        """Drawn runs adopt drawn maps; every edge, those right after an
        adoption included, equals the full walk, and the run the
        reference."""
        runner, remaps = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            _remap(monkeypatch, remaps)
            pairs = _spy_edges(monkeypatch)
            sharded = runner.run()
        for expected, collected in pairs:
            assert collected == expected
        assert compare_results(reference_run(runner.workload), sharded,
                               label_a="reference",
                               label_b="remapped") == []


def _index_box_tiles(sim: ShardSim, x: float, y: float) -> set[int]:
    """The tiles ``route`` reads the map at for a device at ``(x, y)``:
    the clamped floor indices of each halo edge, written out."""
    partition = sim.partition
    bounds = partition.bounds
    halo = sim.config.halo

    def index(value: float, origin: float, step: float, count: int) -> int:
        return min(count - 1, max(0, int((value - origin) // step)))

    columns = range(
        index(x - halo, bounds.min_x, partition.tile_width, partition.tiles_x),
        index(x + halo, bounds.min_x, partition.tile_width,
              partition.tiles_x) + 1)
    rows = range(
        index(y - halo, bounds.min_y, partition.tile_height,
              partition.tiles_y),
        index(y + halo, bounds.min_y, partition.tile_height,
              partition.tiles_y) + 1)
    return {row * partition.tiles_x + column
            for row in rows for column in columns}


#: A rebalancing run with an edge that sends immigrants or snapshots to
#: each of its three shards.
FAN_OUT_EDGES = ShardedRunner(CLUSTERED, 3, processes=False,
                              partition="tile", rebalance=True)


class TestBatchedEdge:
    def test_edge_routes_only_what_the_map_or_a_move_changed(self,
                                                             monkeypatch):
        """An edge routes exactly the walkers out of their box and the
        devices whose index box holds a reassigned tile; ``route`` or
        ``route_with_box`` runs once for each."""
        remapped: dict[int, set[int]] = {}
        adopt = ShardSim.adopt_tile_map

        def adopting(sim, tile_map):
            old = sim.partition.tile_map
            remapped.setdefault(sim.shard_id, set()).update(
                tile for tile, (was, now)
                in enumerate(zip(old, tile_map, strict=True)) if was != now)
            return adopt(sim, tile_map)

        routed: list[str] = []
        reroute = ShardSim._reroute

        def rerouting(sim, device_id, *args):
            routed.append(device_id)
            return reroute(sim, device_id, *args)

        route_calls = [0]
        route = TilePartition.route
        route_with_box = TilePartition.route_with_box

        def counting(partition, x, y, halo):
            route_calls[0] += 1
            return route(partition, x, y, halo)

        def counting_with_box(partition, x, y, halo):
            route_calls[0] += 1
            return route_with_box(partition, x, y, halo)

        collect = ShardSim.collect_exchange
        checked = []

        def pinned(sim):
            changed = remapped.pop(sim.shard_id, set())
            expected = set()
            by_map = set()
            for device_id in sim.owned:
                position = sim.world.node(device_id).position
                x, y = position.x, position.y
                if device_id in sim._walkers:
                    lo_x, hi_x, lo_y, hi_y = sim._routes[device_id][:4]
                    if not (lo_x <= x <= hi_x and lo_y <= y <= hi_y):
                        expected.add(device_id)
                if changed & _index_box_tiles(sim, x, y):
                    by_map.add(device_id)
            # stationary devices routed for the map alone
            still = by_map - expected - set(sim._walkers)
            expected |= by_map
            routed.clear()
            route_calls[0] = 0
            exchange = collect(sim)
            assert sorted(routed) == sorted(expected)
            assert route_calls[0] == len(expected)
            checked.append((bool(changed), bool(still),
                            len(expected) < len(sim.owned)))
            return exchange

        monkeypatch.setattr(ShardSim, "adopt_tile_map", adopting)
        monkeypatch.setattr(ShardSim, "_reroute", rerouting)
        monkeypatch.setattr(TilePartition, "route", counting)
        monkeypatch.setattr(TilePartition, "route_with_box",
                            counting_with_box)
        monkeypatch.setattr(ShardSim, "collect_exchange", pinned)
        _remap(monkeypatch, BUSY_REMAPS)
        result = BUSY_EDGES.run()
        assert result.rebalances > 0
        # Guard the guard: an edge after an adoption re-routed
        # stationary devices for the map alone and left others be.
        assert (True, True, True) in checked

    def test_inline_edge_clones_once_per_destination(self, monkeypatch):
        """Each destination's immigrants and snapshots arrive as one
        pickle round trip's output, and no two shards ever hold one
        state or model object.  ``FAN_OUT_EDGES`` reaches an edge that
        sends traffic to every shard."""
        cloned: list[tuple] = []
        clone = runner_module._clone

        def cloning(value):
            copy = clone(value)
            if isinstance(value, tuple):
                cloned.append(copy)
            return copy

        sims: dict[int, ShardSim] = {}
        edges = []
        apply = ShardSim.apply_exchange

        def applying(sim, immigrants, snapshots, kept, tile_map=None):
            sims[sim.shard_id] = sim
            assert any(copy[0] is immigrants and copy[1] is snapshots
                       for copy in cloned) == bool(immigrants or snapshots)
            apply(sim, immigrants, snapshots, kept, tile_map)
            if sim.shard_id == FAN_OUT_EDGES.shards - 1:
                assert len(cloned) <= FAN_OUT_EDGES.shards
                edges.append(len(cloned))
                cloned.clear()
                held = [state for shard in sims.values()
                        for state in (*shard.owned.values(),
                                      *shard.ghosts.values())]
                models = [state.model for state in held
                          if state.model is not None]
                assert len({id(state) for state in held}) == len(held)
                assert len({id(model) for model in models}) == len(models)

        monkeypatch.setattr(runner_module, "_clone", cloning)
        monkeypatch.setattr(ShardSim, "apply_exchange", applying)
        FAN_OUT_EDGES.run()
        assert edges and max(edges) == FAN_OUT_EDGES.shards


# -- a device keeps what it has across a shard edge ---------------------------

#: A hotspot crowd on two shards whose first rebalance, at the first
#: edge, moves tiles: the second edge migrates their devices, some still
#: inside the old owner's halo and some held by the new owner as ghosts,
#: and walkers cross the border later on.
HANDOVER = ShardedRunner(
    clustered_workload(120, seed=13, sim_seconds=8.0, clusters=4,
                       center_spread=0.05, center_spread_y=0.3,
                       scan_interval=2.0, window=1.0),
    2, processes=False, partition="tile", rebalance=True,
    verify_ghosts=True)


def _spy_removals(monkeypatch) -> dict[int, list[str]]:
    """Record the ids each world passes through ``World.remove_nodes``,
    keyed by the world's ``id``."""
    removed: dict[int, list[str]] = {}
    remove_nodes = World.remove_nodes

    def removing(world, node_ids):
        node_ids = list(node_ids)
        removed.setdefault(id(world), []).extend(node_ids)
        return remove_nodes(world, node_ids)

    monkeypatch.setattr(World, "remove_nodes", removing)
    return removed


class TestHandover:
    def test_edge_routes_only_devices_out_of_their_box_or_remapped(
            self, monkeypatch):
        """A route is found where its device stands, by the initial
        split at t=0 and later by whichever shard routes the device, and
        it holds in the exact box around that spot until the map changes
        there.  No edge routes a device inside that box with no
        reassigned tile in its index box: the first edge leaves the
        constructor's walkers be, and the edge after a migration its
        immigrants."""
        halo = HANDOVER.config.halo
        bounds = HANDOVER.workload.bounds
        routed_at: dict[str, tuple[float, float]] = {}
        for state in HANDOVER.workload.build_devices():
            point = bounds.clamp(state.position())
            routed_at[state.device_id] = (point.x, point.y)
        remapped: dict[int, set[int]] = {}
        adopt = ShardSim.adopt_tile_map

        def adopting(sim, tile_map):
            remapped.setdefault(sim.shard_id, set()).update(
                tile for tile, (was, now)
                in enumerate(zip(sim.partition.tile_map, tile_map,
                                 strict=True)) if was != now)
            return adopt(sim, tile_map)

        routed: list[str] = []
        reroute = ShardSim._reroute

        def rerouting(sim, device_id, *args):
            routed.append(device_id)
            position = sim.world.node(device_id).position
            routed_at[device_id] = (position.x, position.y)
            return reroute(sim, device_id, *args)

        arrived: dict[int, set[str]] = {}
        apply = ShardSim.apply_exchange

        def applying(sim, immigrants, *args):
            arrived[sim.shard_id] = {immigrant[0].device_id
                                     for immigrant in immigrants}
            return apply(sim, immigrants, *args)

        collect = ShardSim.collect_exchange
        walkers_left_be: list[str] = []
        immigrants_left_be: list[str] = []

        def checking(sim):
            changed = remapped.pop(sim.shard_id, set())
            expected = set()
            for device_id in sim.owned:
                position = sim.world.node(device_id).position
                x, y = position.x, position.y
                lo_x, hi_x, lo_y, hi_y = sim.partition.route_box(
                    *routed_at[device_id], halo)
                if (not (lo_x <= x <= hi_x and lo_y <= y <= hi_y)
                        or changed & _index_box_tiles(sim, x, y)):
                    expected.add(device_id)
            if sim.env.now == HANDOVER.config.window:
                walkers_left_be.extend(
                    device_id for device_id in sim.owned
                    if device_id not in expected and type(
                        sim.world.node(device_id).model) is not Stationary)
            immigrants_left_be.extend(arrived.pop(sim.shard_id, set())
                                      - expected)
            routed.clear()
            exchange = collect(sim)
            assert sorted(routed) == sorted(expected)
            return exchange

        monkeypatch.setattr(ShardSim, "adopt_tile_map", adopting)
        monkeypatch.setattr(ShardSim, "_reroute", rerouting)
        monkeypatch.setattr(ShardSim, "apply_exchange", applying)
        monkeypatch.setattr(ShardSim, "collect_exchange", checking)
        sharded = HANDOVER.run()
        # Guard the guard: the first edge met walkers in their boxes, and
        # a later one immigrants in theirs.
        assert walkers_left_be and immigrants_left_be
        assert sharded.tiles_migrated > 0

    def test_emigrant_in_its_old_owners_halo_keeps_its_node(self,
                                                            monkeypatch):
        """An emigrant that its old owner still needs as a ghost stays
        in that world as the node it was: it never passes through
        ``World.remove_nodes``.  One that left the halo leaves the
        world."""
        removed = _spy_removals(monkeypatch)
        stayed: list[str] = []
        apply = ShardSim.apply_exchange

        def applying(sim, *args):
            nodes = {device_id: sim.world.node(device_id)
                     for device_id in sim._emigrant_ids}
            apply(sim, *args)
            for device_id, node in nodes.items():
                if device_id in sim.ghosts:
                    stayed.append(device_id)
                    assert sim.world.node(device_id) is node
                    assert device_id not in removed.get(id(sim.world), ())
                else:
                    assert device_id not in sim.world

        monkeypatch.setattr(ShardSim, "apply_exchange", applying)
        HANDOVER.run()
        assert stayed

    def test_no_snapshot_of_a_device_already_in_the_world(self,
                                                          monkeypatch):
        """A snapshot goes only to a shard that does not hold the
        device, as an owned device or as a ghost."""
        sent: list[str] = []
        apply = ShardSim.apply_exchange

        def applying(sim, immigrants, snapshots, *args):
            assert [state.device_id for state in snapshots
                    if state.device_id in sim.world] == []
            sent.extend(state.device_id for state in snapshots)
            return apply(sim, immigrants, snapshots, *args)

        monkeypatch.setattr(ShardSim, "apply_exchange", applying)
        HANDOVER.run()
        assert sent

    def test_immigrant_held_as_a_ghost_keeps_its_node(self, monkeypatch):
        """An immigrant the new owner holds as a ghost is taken over in
        place: the same node, so the same live model, now owned, and it
        never passes through ``World.remove_nodes``."""
        removed = _spy_removals(monkeypatch)
        adopted: list[str] = []
        apply = ShardSim.apply_exchange

        def applying(sim, immigrants, *args):
            held = {immigrant[0].device_id:
                    sim.world.node(immigrant[0].device_id)
                    for immigrant in immigrants
                    if immigrant[0].device_id in sim.ghosts}
            apply(sim, immigrants, *args)
            for device_id, node in held.items():
                assert sim.world.node(device_id) is node
                assert sim.owned[device_id].model is node.model or (
                    sim.owned[device_id].model is None)
                assert device_id not in removed.get(id(sim.world), ())
            adopted.extend(held)

        monkeypatch.setattr(ShardSim, "apply_exchange", applying)
        HANDOVER.run()
        assert adopted
