"""Spatial grid + incremental invalidation vs the brute-force oracle.

The grid-backed world and the eviction-based medium must be *exactly*
equivalent to the ``REPRO_SPATIAL_INDEX=0`` brute-force path: same
``nodes_within`` results, same reachability verdicts, same neighbour
listings — across arbitrary interleavings of placements, moves,
removals and adapter power toggles.  The hypothesis machine below
drives both implementations side by side with the same operation
stream and compares every observable after every operation.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.geometry import Point, Rect
from repro.mobility.grid import SpatialGrid
from repro.mobility.world import DEFAULT_CELL_SIZE, World
from repro.radio.medium import Medium
from repro.radio.standards import BLUETOOTH, WLAN
from repro.simenv import Environment

BOUNDS = Rect(0.0, 0.0, 300.0, 300.0)
NODE_IDS = tuple(f"n{i}" for i in range(8))
TECHNOLOGIES = (BLUETOOTH, WLAN)

coords = st.floats(min_value=0.0, max_value=300.0,
                   allow_nan=False, allow_infinity=False)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(NODE_IDS), coords, coords),
        st.tuples(st.just("move"), st.sampled_from(NODE_IDS), coords, coords),
        st.tuples(st.just("remove"), st.sampled_from(NODE_IDS)),
        st.tuples(st.just("toggle"), st.sampled_from(NODE_IDS),
                  st.sampled_from([t.name for t in TECHNOLOGIES])),
    ),
    min_size=1, max_size=30)


def _build(spatial: bool) -> tuple[World, Medium]:
    env = Environment(seed=7)
    world = World(env, bounds=BOUNDS,
                  cell_size=DEFAULT_CELL_SIZE if spatial else None)
    if not spatial:
        world._grid = None  # brute-force oracle: no spatial index
    medium = Medium(world)
    return world, medium


def _attach_all(world: World, medium: Medium, node_id: str) -> None:
    for technology in TECHNOLOGIES:
        medium.attach(node_id, technology)


def _observables(world: World, medium: Medium) -> dict:
    """Everything a client could observe, for cross-implementation
    comparison."""
    listing: dict = {"nodes": {}}
    for node in world:
        listing["nodes"][node.node_id] = (node.position.x, node.position.y)
    present = sorted(listing["nodes"])
    for node_id in present:
        for radius in (10.0, 60.0, 150.0):
            listing[f"within:{node_id}:{radius}"] = [
                other.node_id for other in world.nodes_within(node_id, radius)]
    for technology in TECHNOLOGIES:
        for node_id in present:
            listing[f"nbr:{node_id}:{technology.name}"] = \
                medium.neighbors(node_id, technology.name)
        for a in present:
            for b in present:
                listing[f"reach:{a}:{b}:{technology.name}"] = \
                    medium.reachable(a, b, technology.name)
    return listing


class _SidePair:
    """The grid implementation and the brute-force oracle, driven in
    lockstep."""

    def __init__(self) -> None:
        self.grid_world, self.grid_medium = _build(spatial=True)
        self.brute_world, self.brute_medium = _build(spatial=False)
        self.alive: set[str] = set()

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "add":
            _, node_id, x, y = op
            if node_id in self.alive:
                return
            for world, medium in ((self.grid_world, self.grid_medium),
                                  (self.brute_world, self.brute_medium)):
                world.add_node(node_id, Point(x, y))
                _attach_all(world, medium, node_id)
            self.alive.add(node_id)
        elif kind == "move":
            _, node_id, x, y = op
            if node_id not in self.alive:
                return
            self.grid_world.move_node(node_id, Point(x, y))
            self.brute_world.move_node(node_id, Point(x, y))
        elif kind == "remove":
            _, node_id = op
            if node_id not in self.alive:
                return
            for world, medium in ((self.grid_world, self.grid_medium),
                                  (self.brute_world, self.brute_medium)):
                for technology in TECHNOLOGIES:
                    medium.detach(node_id, technology.name)
                world.remove_node(node_id)
            self.alive.discard(node_id)
        else:  # toggle
            _, node_id, technology_name = op
            if node_id not in self.alive:
                return
            for medium in (self.grid_medium, self.brute_medium):
                adapter = medium.adapter(node_id, technology_name)
                adapter.enabled = not adapter.enabled

    def check(self) -> None:
        grid_view = _observables(self.grid_world, self.grid_medium)
        brute_view = _observables(self.brute_world, self.brute_medium)
        assert grid_view == brute_view


@settings(deadline=None, max_examples=60)
@given(ops=operations)
def test_grid_and_incremental_match_brute_force_oracle(ops) -> None:
    """Grid + eviction caching is observationally identical to O(N^2)."""
    pair = _SidePair()
    for op in ops:
        pair.apply(op)
        pair.check()


# -- SpatialGrid unit properties ----------------------------------------------


@settings(deadline=None, max_examples=60)
@given(points=st.lists(st.tuples(coords, coords), min_size=1, max_size=12),
       center=st.tuples(coords, coords),
       radius=st.floats(min_value=1.0, max_value=150.0))
def test_candidates_is_a_superset_of_the_disc(points, center, radius) -> None:
    """Grid candidate lists may over-approximate but never miss."""
    grid = SpatialGrid(25.0)
    for index, (x, y) in enumerate(points):
        grid.insert(f"p{index}", Point(x, y))
    cx, cy = center
    candidates = set(grid.candidates(Point(cx, cy), radius))
    for index, (x, y) in enumerate(points):
        if math.hypot(x - cx, y - cy) <= radius:
            assert f"p{index}" in candidates


def test_cover_reaches_points_the_float_test_accepts() -> None:
    """``10.0 - 10.0`` rounds to ``0.0``, yet the scalar float test
    accepts a point at ``y = -5e-324``, one cell below: the disc's cell
    cover must still reach it (the whole-population sweep does)."""
    center = Point(0.0, 10.0)
    below = Point(0.0, -5e-324)
    dy = below.y - center.y
    assert dy * dy <= 10.0 * 10.0
    grid = SpatialGrid(60.0)
    grid.insert("below", below)
    assert "below" in grid.candidates(center, 10.0)
    world = World(Environment(seed=3), bounds=Rect(-100.0, -100.0,
                                                    100.0, 100.0),
                  cell_size=60.0)
    world.add_node("center", center)
    world.add_node("below", below)
    assert [node.node_id for node in world.nodes_within("center", 10.0)] \
        == ["below"]


# -- incremental invalidation regressions -------------------------------------


@pytest.fixture
def crowded():
    env = Environment(seed=3)
    world = World(env, bounds=BOUNDS)
    assert world.grid is not None, "spatial index must be on by default"
    medium = Medium(world)
    for i in range(6):
        node_id = f"d{i}"
        world.add_node(node_id, Point(30.0 * i + 5.0, 40.0))
        medium.attach(node_id, BLUETOOTH)
        medium.attach(node_id, WLAN)
    return env, world, medium


def test_no_movement_preserves_stamps_and_caches(crowded) -> None:
    """A tick in which nobody moved must leave memoized state intact."""
    env, world, medium = crowded
    listings = {d: medium.neighbors(d, "wlan") for d in ("d0", "d3")}
    stamps = {d: world.region_stamp(d, WLAN.range_m)
              for d in ("d0", "d3")}
    verdicts = dict(medium._reachable_cache)
    env.run(until=env.now + 2.0)  # several world ticks, all stationary
    for d in ("d0", "d3"):
        assert world.region_stamp(d, WLAN.range_m) == stamps[d]
        assert medium.neighbors(d, "wlan") == listings[d]
    assert medium._reachable_cache == verdicts


def test_single_mover_evicts_only_its_own_pairs(crowded) -> None:
    """Moving one node drops exactly that node's cached verdicts."""
    env, world, medium = crowded
    for a in ("d0", "d1", "d4", "d5"):
        for b in ("d0", "d1", "d4", "d5"):
            medium.reachable(a, b, "wlan")
    survivor_keys = [key for key in medium._reachable_cache
                     if "d5" not in key]
    assert survivor_keys, "need unrelated cached verdicts for the test"
    world.move_node("d5", Point(200.0, 200.0))
    for key in survivor_keys:
        assert key in medium._reachable_cache, \
            f"verdict {key} wrongly evicted by an unrelated move"
    assert not any("d5" in key for key in medium._reachable_cache), \
        "the mover's own verdicts must be dropped"


def test_within_cell_move_keeps_unrelated_listings(crowded) -> None:
    """A move that stays inside one cell only disturbs discs covering
    that cell — far-away neighbour listings keep their stamp."""
    env, world, medium = crowded
    far = medium.neighbors("d5", "bluetooth")  # d5 at x=155, d0 at x=5
    far_stamp = world.region_stamp("d5", BLUETOOTH.range_m)
    origin = world.node("d0").position
    world.move_node("d0", Point(origin.x + 1.0, origin.y))  # same cell
    assert world.region_stamp("d5", BLUETOOTH.range_m) == far_stamp
    assert medium.neighbors("d5", "bluetooth") == far


def test_adapter_toggle_touches_only_that_device(crowded) -> None:
    """Power-toggling one radio invalidates only that device's pairs."""
    env, world, medium = crowded
    for a in ("d0", "d1"):
        for b in ("d0", "d1"):
            medium.reachable(a, b, "wlan")
    unrelated = [key for key in medium._reachable_cache
                 if "d5" not in key]
    medium.adapter("d5", "wlan").enabled = False
    for key in unrelated:
        assert key in medium._reachable_cache
    assert medium.reachable("d4", "d5", "wlan") is False
    medium.adapter("d5", "wlan").enabled = True
    assert medium.reachable("d4", "d5", "wlan") is True


def test_batch_coalesces_to_one_report() -> None:
    """Bulk population inside world.batch() fires one merged report."""
    env = Environment(seed=1)
    world = World(env, bounds=BOUNDS)
    reports = []
    ticks = []
    world.on_moves(reports.append)
    world.on_movement(lambda: ticks.append(1))
    with world.batch():
        for i in range(10):
            world.add_node(f"b{i}", Point(10.0 * i, 10.0))
        world.move_node("b3", Point(35.0, 12.0))
        world.remove_node("b9")
        assert reports == [] and ticks == []
    assert len(reports) == 1 and len(ticks) == 1
    report = reports[0]
    assert report.added == tuple(f"b{i}" for i in range(10))
    assert report.moved == ("b3",)
    assert report.removed == ("b9",)
    with world.batch():
        pass  # nothing changed: listeners must stay silent
    assert len(reports) == 1 and len(ticks) == 1


def test_stamp_detects_cover_shift_despite_equal_epoch_sums() -> None:
    """A moved query centre must never validate a stale listing.

    Epoch *sums* over two different cell covers can coincide: here the
    old cover carries its changes in cell (-1, 0) and the new cover an
    equal amount in cell (2, 0), so a sum-only stamp would compare
    equal across the shift and a cached neighbour listing taken at the
    old centre would survive the move.  The stamp embeds the cover
    bounds precisely to kill this aliasing (found as a one-sighting
    divergence between sharded and single-process 100k-device runs).
    """
    grid = SpatialGrid(cell_size=10.0)
    grid.insert("mover", Point(5.0, 5.0))  # cell (0, 0): epoch 1
    grid.insert("a", Point(-5.0, 5.0))     # cell (-1, 0): epoch 1
    grid.remove("a")                       # cell (-1, 0): epoch 2
    old_stamp = grid.region_stamp(Point(5.0, 5.0), 10.0)
    grid.insert("b", Point(25.0, 5.0))     # cell (2, 0): epoch 1
    grid.remove("b")                       # cell (2, 0): epoch 2
    # Disc shifts one cell right: cover x-range goes [-1, 1] -> [0, 2],
    # dropping epoch-2 cell (-1, 0) and gaining epoch-2 cell (2, 0) —
    # the epoch sums over both covers are identical.
    new_stamp = grid.region_stamp(Point(15.0, 5.0), 10.0)
    assert old_stamp[-1] == new_stamp[-1]  # the sums really do collide
    assert old_stamp != new_stamp
