"""Spatial grid + incremental invalidation vs a brute-force model.

The grid-backed world and the eviction-based medium must be *exactly*
equivalent to an O(N²) model that holds positions and adapter power
and applies one ``dx*dx + dy*dy <= r*r`` test: same ``nodes_within``
results, same reachability verdicts, same neighbour listings — across
arbitrary interleavings of placements, moves, removals and adapter
power toggles.  The hypothesis machine below drives the world, the
medium and the model with the same operation stream and compares every
observable after every operation.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mobility.geometry import Point, Rect
from repro.mobility.grid import SpatialGrid
from repro.mobility.world import DEFAULT_CELL_SIZE, World
from repro.radio.medium import Medium
from repro.radio.standards import BLUETOOTH, WLAN
from repro.radio.technology import Technology
from repro.simenv import Environment

BOUNDS = Rect(0.0, 0.0, 300.0, 300.0)
NODE_IDS = tuple(f"n{i}" for i in range(8))
TECHNOLOGIES = (BLUETOOTH, WLAN)
#: ``nodes_within`` radii the lockstep compares.
RADII = (10.0, 60.0, 150.0)

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


def _in_range(a: tuple[float, float], b: tuple[float, float],
              radius: float) -> bool:
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    return dx * dx + dy * dy <= radius * radius


class _Model:
    """The brute-force reference: positions, adapter power and one
    in-range test, scanned over every node."""

    def __init__(self) -> None:
        self.positions: dict[str, tuple[float, float]] = {}
        #: (node id, technology name) -> adapter powered
        self.powered: dict[tuple[str, str], bool] = {}

    def within(self, node_id: str, radius: float) -> list[str]:
        center = self.positions[node_id]
        return sorted(other for other, position in self.positions.items()
                      if other != node_id
                      and _in_range(center, position, radius))

    def reachable(self, a: str, b: str, technology: Technology) -> bool:
        name = technology.name
        return (a != b and self.powered.get((a, name), False)
                and self.powered.get((b, name), False)
                and _in_range(self.positions[a], self.positions[b],
                              technology.range_m))

    def neighbors(self, node_id: str, technology: Technology) -> list[str]:
        return [other for other in sorted(self.positions)
                if self.reachable(node_id, other, technology)]


class _Lockstep:
    """The world and medium, and the model, driven in lockstep."""

    def __init__(self) -> None:
        self.world = World(Environment(seed=7), bounds=BOUNDS,
                           cell_size=DEFAULT_CELL_SIZE)
        self.medium = Medium(self.world)
        self.model = _Model()

    def apply(self, op: tuple) -> None:
        kind, node_id = op[0], op[1]
        model = self.model
        alive = node_id in model.positions
        if kind == "add" and not alive:
            _, _, x, y = op
            self.world.add_node(node_id, Point(x, y))
            model.positions[node_id] = (x, y)
            for technology in TECHNOLOGIES:
                self.medium.attach(node_id, technology)
                model.powered[(node_id, technology.name)] = True
        elif kind == "move" and alive:
            _, _, x, y = op
            self.world.move_node(node_id, Point(x, y))
            model.positions[node_id] = (x, y)
        elif kind == "remove" and alive:
            for technology in TECHNOLOGIES:
                self.medium.detach(node_id, technology.name)
                del model.powered[(node_id, technology.name)]
            self.world.remove_node(node_id)
            del model.positions[node_id]
        elif kind == "toggle" and alive:
            key = (node_id, op[2])
            model.powered[key] = not model.powered[key]
            self.medium.adapter(*key).enabled = model.powered[key]

    def check(self) -> None:
        world, medium, model = self.world, self.medium, self.model
        assert {node.node_id: (node.position.x, node.position.y)
                for node in world} == model.positions
        present = sorted(model.positions)
        for node_id in present:
            for radius in RADII:
                assert [other.node_id for other in
                        world.nodes_within(node_id, radius)] \
                    == model.within(node_id, radius)
        for technology in TECHNOLOGIES:
            for node_id in present:
                assert medium.neighbors(node_id, technology.name) \
                    == model.neighbors(node_id, technology)
            for a in present:
                for b in present:
                    assert medium.reachable(a, b, technology.name) \
                        == model.reachable(a, b, technology)


@settings(deadline=None, max_examples=60)
@given(ops=operations)
# Two devices a Bluetooth range and a WLAN range from n0, where hypot
# and the squared test disagree (hypot accepts the first, the squared
# test the second).
@example(ops=[("add", "n0", 0.0, 0.0),
              ("add", "n1", 7.896044033001984, 6.136162369828049),
              ("add", "n2", 49.90316007295606, 33.311778918768724)])
def test_grid_and_incremental_match_brute_force_oracle(ops) -> None:
    """Grid + eviction caching is observationally identical to O(N^2)."""
    lockstep = _Lockstep()
    for op in ops:
        lockstep.apply(op)
        lockstep.check()


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
    world.on_moves(reports.append)
    with world.batch():
        for i in range(10):
            world.add_node(f"b{i}", Point(10.0 * i, 10.0))
        world.move_node("b3", Point(35.0, 12.0))
        world.remove_node("b9")
        assert reports == []
    assert len(reports) == 1
    report = reports[0]
    assert report.added == tuple(f"b{i}" for i in range(10))
    assert report.moved == ("b3",)
    assert report.removed == ("b9",)
    with world.batch():
        pass  # nothing changed: listeners must stay silent
    assert len(reports) == 1


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
