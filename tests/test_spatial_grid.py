"""Spatial grid + version-scoped medium caches vs a brute-force model.

The grid-backed world and the caching medium must be *exactly*
equivalent to an O(N²) model that holds positions, adapter power and
gateway presence and applies one ``dx*dx + dy*dy <= r*r`` test: same
``nodes_within`` results, same reachability verdicts, same neighbour
listings — across arbitrary interleavings of every change that starts
a new topology version: placements, teleports, removals, adapter power
toggles, gateway registrations and world ticks that move walkers.  The
hypothesis machine below drives the world, the medium and the model
with the same operation stream and compares every observable after
every operation.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mobility.geometry import Point, Rect
from repro.mobility.grid import SpatialGrid
from repro.mobility.models import RandomWalk
from repro.mobility.world import DEFAULT_CELL_SIZE, MovementReport, World
from repro.radio.medium import Medium
from repro.radio.standards import BLUETOOTH, GPRS, WLAN
from repro.radio.technology import Technology
from repro.simenv import Environment

BOUNDS = Rect(0.0, 0.0, 300.0, 300.0)
NODE_IDS = tuple(f"n{i}" for i in range(8))
TECHNOLOGIES = (BLUETOOTH, WLAN, GPRS)
#: ``nodes_within`` radii the lockstep compares.
RADII = (10.0, 60.0, 150.0)
#: A ``tick`` walker covers 20 m per 0.5 s tick: two Bluetooth ranges,
#: a third of a WLAN range or grid cell.
WALKER_SPEED = 40.0

coords = st.floats(min_value=0.0, max_value=300.0,
                   allow_nan=False, allow_infinity=False)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(NODE_IDS), coords, coords),
        st.tuples(st.just("move"), st.sampled_from(NODE_IDS), coords, coords),
        st.tuples(st.just("remove"), st.sampled_from(NODE_IDS)),
        st.tuples(st.just("toggle"), st.sampled_from(NODE_IDS),
                  st.sampled_from([t.name for t in TECHNOLOGIES])),
        st.tuples(st.just("gateway")),
        st.tuples(st.just("tick"), st.sampled_from(NODE_IDS),
                  st.integers(min_value=0, max_value=2 ** 16)),
    ),
    min_size=1, max_size=30)


def _in_range(a: tuple[float, float], b: tuple[float, float],
              radius: float) -> bool:
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    return dx * dx + dy * dy <= radius * radius


class _Model:
    """The brute-force reference: positions, adapter power, gateway
    presence and one in-range test, scanned over every node."""

    def __init__(self) -> None:
        self.positions: dict[str, tuple[float, float]] = {}
        #: (node id, technology name) -> adapter powered
        self.powered: dict[tuple[str, str], bool] = {}
        self.gateway = False

    def within(self, node_id: str, radius: float) -> list[str]:
        center = self.positions[node_id]
        return sorted(other for other, position in self.positions.items()
                      if other != node_id
                      and _in_range(center, position, radius))

    def reachable(self, a: str, b: str, technology: Technology) -> bool:
        name = technology.name
        if not (a != b and self.powered.get((a, name), False)
                and self.powered.get((b, name), False)):
            return False
        if technology.needs_gateway:
            return self.gateway
        return _in_range(self.positions[a], self.positions[b],
                         technology.range_m)

    def neighbors(self, node_id: str, technology: Technology) -> list[str]:
        return [other for other in sorted(self.positions)
                if self.reachable(node_id, other, technology)]


class _Lockstep:
    """The world and medium, and the model, driven in lockstep."""

    def __init__(self) -> None:
        self.env = Environment(seed=7)
        self.world = World(self.env, bounds=BOUNDS,
                           cell_size=DEFAULT_CELL_SIZE)
        self.medium = Medium(self.world)
        self.model = _Model()
        self.reports: list[MovementReport] = []
        self.world.on_moves(self.reports.append)

    def apply(self, op: tuple) -> None:
        kind = op[0]
        model = self.model
        if kind == "gateway":
            self.medium.register_gateway(GPRS.name)
            model.gateway = True
            return
        node_id = op[1]
        alive = node_id in model.positions
        if kind == "tick":
            # The named node (if on the map) walks from now on; every
            # walker then takes one world tick's step, and the model
            # takes the positions of the nodes the world reports moved.
            if alive:
                self.world.node(node_id).model = RandomWalk(
                    BOUNDS, WALKER_SPEED, random.Random(op[2]))
            self.reports.clear()
            self.env.run(until=self.env.now + self.world.tick)
            for report in self.reports:
                for moved_id in report.moved:
                    position = self.world.node(moved_id).position
                    model.positions[moved_id] = (position.x, position.y)
        elif kind == "add" and not alive:
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
# A cached listing must not survive its device's disc shifting onto
# another cell cover (60 m cells once WLAN attaches): n0's WLAN cover
# moves from cell columns 0-2 to 1-3.  n1's add and remove in column 0
# and n2's add and two toggles in column 3 are chosen so that per-cell
# change counts summed over either cover agree, and a stamp of such
# sums alone once validated n0's stale listing ([] instead of ["n3"]).
# Found as a one-sighting divergence between sharded and
# single-process 100k-device runs.
@example(ops=[("add", "n0", 90.0, 30.0),
              ("add", "n3", 170.0, 30.0),
              ("add", "n1", 30.0, 30.0),
              ("remove", "n1"),
              ("add", "n2", 230.0, 30.0),
              ("toggle", "n2", "bluetooth"),
              ("toggle", "n2", "bluetooth"),
              ("move", "n0", 150.0, 30.0)])
# A gateway registered after GPRS verdicts and listings were cached
# must flip them.
@example(ops=[("add", "n0", 10.0, 10.0),
              ("add", "n1", 250.0, 250.0),
              ("gateway",)])
def test_grid_and_incremental_match_brute_force_oracle(ops) -> None:
    """Grid + version-scoped caching is observationally identical to
    O(N^2)."""
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


# -- version-scoped caches ----------------------------------------------------


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
    """A tick in which nobody moved must leave the topology version and
    the memoized state intact."""
    env, world, medium = crowded
    listings = {d: medium.neighbors(d, "wlan") for d in ("d0", "d3")}
    version = medium._topology_version
    verdicts = dict(medium._reachable_cache)
    env.run(until=env.now + 2.0)  # several world ticks, all stationary
    assert medium._topology_version == version
    for d in ("d0", "d3"):
        assert medium.neighbors(d, "wlan") == listings[d]
    assert medium._reachable_cache == verdicts


def test_adapter_toggle_touches_only_that_device(crowded) -> None:
    """Power-toggling one radio flips only that device's pairs."""
    env, world, medium = crowded
    medium.adapter("d5", "wlan").enabled = False
    assert medium.reachable("d4", "d5", "wlan") is False
    assert medium.reachable("d0", "d1", "wlan") is True
    medium.adapter("d5", "wlan").enabled = True
    assert medium.reachable("d4", "d5", "wlan") is True
