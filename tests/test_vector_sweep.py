"""Vectorized medium sweeps vs the scalar path — lockstep oracle.

The numpy whole-population sweep (:mod:`repro.radio.sweep`) must
produce listings *bit-identical* to the scalar grid-walk path:
same neighbours, same order, across arbitrary interleavings of moves,
adapter toggles and detaches.  The tests drive a vectorized medium and
a scalar medium through identical operation streams and compare every
listing after every operation, and check the kernel itself against a
brute-force O(n^2) oracle, including pairs exactly one radius apart
(and one ulp either side) across multiples of the bucketing pitch,
where a one-ring search has no slack.

A medium's regime is forced by setting the module constant
:data:`repro.radio.medium.VECTOR_SWEEP_MIN_DEVICES` while it is built:
1 sweeps every local technology, :data:`NEVER` never does.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.geometry import Point, Rect
from repro.mobility.world import World
from repro.radio import medium as medium_module
from repro.radio import sweep
from repro.radio.medium import Medium, VECTOR_SWEEP_MIN_DEVICES
from repro.radio.standards import BLUETOOTH, WLAN
from repro.simenv import Environment

pytestmark = pytest.mark.skipif(not sweep.available(),
                                reason="numpy not available")

BOUNDS = Rect(0.0, 0.0, 300.0, 300.0)
NODE_IDS = tuple(f"n{i:02d}" for i in range(12))
TECHNOLOGIES = (BLUETOOTH, WLAN)
#: A sweep threshold no test population reaches: the scalar regime.
NEVER = 1 << 30

coords = st.floats(min_value=0.0, max_value=300.0,
                   allow_nan=False, allow_infinity=False)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("move"), st.sampled_from(NODE_IDS), coords, coords),
        st.tuples(st.just("toggle"), st.sampled_from(NODE_IDS),
                  st.sampled_from([t.name for t in TECHNOLOGIES])),
        st.tuples(st.just("detach"), st.sampled_from(NODE_IDS),
                  st.sampled_from([t.name for t in TECHNOLOGIES])),
        # Leave the world with adapters attached, or rejoin at (x, y).
        st.tuples(st.just("leave"), st.sampled_from(NODE_IDS), coords, coords),
    ),
    min_size=1, max_size=25)


@contextmanager
def _sweep_threshold(min_devices: int):
    """Set the module's sweep threshold for the media built inside.

    Plain attribute juggling instead of ``monkeypatch``: hypothesis
    forbids function-scoped fixtures inside ``@given``.
    """
    saved = medium_module.VECTOR_SWEEP_MIN_DEVICES
    medium_module.VECTOR_SWEEP_MIN_DEVICES = min_devices
    try:
        yield
    finally:
        medium_module.VECTOR_SWEEP_MIN_DEVICES = saved


def _build(min_devices: int = VECTOR_SWEEP_MIN_DEVICES,
           bounds: Rect = BOUNDS) -> tuple[World, Medium]:
    env = Environment(seed=7)
    world = World(env, bounds=bounds)
    with _sweep_threshold(min_devices):
        return world, Medium(world)


def _populate(world: World, medium: Medium, seed: int = 3) -> None:
    rng = random.Random(seed)
    for node_id in NODE_IDS:
        world.add_node(node_id, Point(rng.uniform(0, 300),
                                      rng.uniform(0, 300)))
        for technology in TECHNOLOGIES:
            medium.attach(node_id, technology)


def _listings(medium: Medium) -> dict[tuple[str, str], list[str]]:
    return {(node_id, technology.name):
            medium.neighbors(node_id, technology.name)
            for node_id in NODE_IDS for technology in TECHNOLOGIES}


class TestEscapeHatch:
    """Which regime a medium runs, and the ways to the scalar path."""

    def test_vector_sweep_enabled_by_default(self):
        _, medium = _build()
        assert medium._vector_min == VECTOR_SWEEP_MIN_DEVICES

    def test_escape_hatch_disables(self, monkeypatch):
        """Without numpy a medium never sweeps, whatever the threshold."""
        monkeypatch.setattr(sweep, "_np", None)
        world, medium = _build(1)
        assert medium._vector_min is None
        _populate(world, medium)
        _listings(medium)
        assert medium._sweeps == {}

    def test_scalar_medium_never_sweeps(self):
        world, medium = _build(NEVER)
        _populate(world, medium)
        _listings(medium)
        assert medium._sweeps == {}

    def test_threshold_gates_small_populations(self):
        world, medium = _build()
        _populate(world, medium)
        assert len(NODE_IDS) < VECTOR_SWEEP_MIN_DEVICES
        _listings(medium)
        # Below the threshold the scalar path serves everything.
        assert medium._sweeps == {}

    def test_auto_enables_at_threshold(self):
        world, medium = _build(len(NODE_IDS))
        _populate(world, medium)
        _listings(medium)
        # At or above the threshold every local technology is served by
        # whole-population sweeps, no opt-in required.
        assert set(medium._sweeps) == {t.name for t in TECHNOLOGIES}


def _media_pair() -> tuple[World, Medium, World, Medium]:
    """A vectorized and a scalar medium, freshly populated alike."""
    vec_world, vec_medium = _build(1)
    scal_world, scal_medium = _build(NEVER)
    _populate(vec_world, vec_medium)
    _populate(scal_world, scal_medium)
    return vec_world, vec_medium, scal_world, scal_medium


def _nudged(value: float) -> tuple[float, float, float]:
    """``value`` and its float neighbours one ulp below and above."""
    return (math.nextafter(value, -math.inf), value,
            math.nextafter(value, math.inf))


def _edge_constellation(anchor_x: float, anchor_y: float,
                        radius: float) -> list[tuple[float, float]]:
    """An anchor and partners exactly ``radius`` away from it along
    each axis and on two diagonals, every coordinate also one ulp
    either side."""
    offsets = ((0.0, 0.0), (radius, 0.0), (-radius, 0.0), (0.0, radius),
               (0.0, -radius), (0.6 * radius, 0.8 * radius),
               (-0.8 * radius, 0.6 * radius))
    return [(x, y) for dx, dy in offsets
            for x in _nudged(anchor_x + dx) for y in _nudged(anchor_y + dy)]


class TestLockstep:
    """Vectorized and scalar media, identical operation streams."""

    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_arbitrary_interleavings_identical(self, ops):
        self._drive(ops, *_media_pair())

    def _drive(self, ops, vec_world, vec_medium, scal_world, scal_medium):
        assert _listings(vec_medium) == _listings(scal_medium)
        detached: set[tuple[str, str]] = set()
        for op in ops:
            if op[0] == "move":
                _, node_id, x, y = op
                if node_id not in vec_world:
                    continue
                vec_world.move_node(node_id, Point(x, y))
                scal_world.move_node(node_id, Point(x, y))
            elif op[0] == "leave":
                _, node_id, x, y = op
                for world in (vec_world, scal_world):
                    if node_id in world:
                        world.remove_node(node_id)
                    else:
                        world.add_node(node_id, Point(x, y))
            elif op[0] == "toggle":
                _, node_id, technology_name = op
                if (node_id, technology_name) in detached:
                    continue
                for medium in (vec_medium, scal_medium):
                    adapter = medium.adapter(node_id, technology_name)
                    adapter.enabled = not adapter.enabled
            else:
                _, node_id, technology_name = op
                if (node_id, technology_name) in detached:
                    continue
                detached.add((node_id, technology_name))
                vec_medium.detach(node_id, technology_name)
                scal_medium.detach(node_id, technology_name)
            vec = {key: listing for key, listing
                   in _listings(vec_medium).items() if key not in detached}
            scal = {key: listing for key, listing
                    in _listings(scal_medium).items() if key not in detached}
            assert vec == scal

    def test_repeat_reads_are_cached_spans(self):
        _, vec_medium, _, scal_medium = _media_pair()
        first = _listings(vec_medium)
        records = dict(vec_medium._sweeps)
        assert records  # the vector path actually ran
        assert _listings(vec_medium) == first == _listings(scal_medium)
        # Without a topology change, repeat reads slice the same records.
        assert vec_medium._sweeps == records

    @settings(max_examples=30, deadline=None)
    @given(kx=st.integers(min_value=-4, max_value=4),
           ky=st.integers(min_value=-4, max_value=4),
           edge=st.sampled_from([WLAN.range_m,
                                 BLUETOOTH.range_m * sweep._PITCH_MARGIN,
                                 WLAN.range_m * sweep._PITCH_MARGIN]))
    def test_bluetooth_and_wlan_at_cell_edges(self, kx, ky, edge):
        """Both radios in one 60 m-cell world, with devices one radius
        (and one ulp either side) apart across grid-cell or sweep-pitch
        multiples: vector listings equal scalar ones for both."""
        anchor_x, anchor_y = kx * edge, ky * edge
        points = sorted(set(
            _edge_constellation(anchor_x, anchor_y, BLUETOOTH.range_m)
            + _edge_constellation(anchor_x, anchor_y, WLAN.range_m)))
        ids = [f"p{index:03d}" for index in range(len(points))]
        listings = []
        for min_devices in (1, NEVER):
            world, medium = _build(min_devices,
                                   Rect(-400.0, -400.0, 400.0, 400.0))
            for node_id, (x, y) in zip(ids, points):
                world.add_node(node_id, Point(x, y))
                for technology in TECHNOLOGIES:
                    medium.attach(node_id, technology)
            assert world.grid.cell_size == WLAN.range_m
            listings.append({(node_id, technology.name):
                             medium.neighbors(node_id, technology.name)
                             for node_id in ids
                             for technology in TECHNOLOGIES})
            assert (medium._sweeps != {}) == (min_devices == 1)
        assert listings[0] == listings[1]
        assert any(listings[0][(node_id, BLUETOOTH.name)]
                   for node_id in ids)


def _brute_force(xs: list[float], ys: list[float],
                 radius: float) -> list[list[int]]:
    """Every point's in-range neighbours by the scalar path's float
    comparison, O(n^2)."""
    r2 = radius * radius
    listings = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        listing = []
        for j, (other_x, other_y) in enumerate(zip(xs, ys)):
            dx = other_x - x
            dy = other_y - y
            if j != i and dx * dx + dy * dy <= r2:
                listing.append(j)
        listings.append(listing)
    return listings


def _assert_matches_brute_force(points: list[tuple[float, float]],
                                radius: float) -> int:
    """Check ``sweep_pairs`` against :func:`_brute_force`; return the
    number of listed (directed) pairs."""
    numpy = pytest.importorskip("numpy")
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    starts, flat = sweep.sweep_pairs(numpy.array(xs), numpy.array(ys),
                                     radius)
    assert flat.dtype == numpy.int64
    assert len(starts) == len(points) + 1
    flat = flat.tolist()
    for i, expected in enumerate(_brute_force(xs, ys, radius)):
        assert flat[starts[i]:starts[i + 1]] == expected
    return len(flat)


class TestSweepKernel:
    """sweep_pairs against a brute-force O(n^2) oracle."""

    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(st.tuples(coords, coords),
                           min_size=1, max_size=40),
           radius=st.floats(min_value=0.5, max_value=120.0,
                            allow_nan=False, allow_infinity=False))
    def test_matches_brute_force(self, points, radius):
        _assert_matches_brute_force(points, radius)

    @settings(max_examples=60, deadline=None)
    @given(radius=st.sampled_from([1.0, 10.0, 60.0]),
           kx=st.integers(min_value=-6, max_value=6),
           ky=st.integers(min_value=-6, max_value=6))
    def test_one_ring_at_pitch_edges(self, radius, kx, ky):
        """Pairs exactly one radius apart, and one ulp either side,
        straddling multiples of the pitch on both axes: the pairs a
        one-ring search with too fine a pitch would lose."""
        pitch = radius * sweep._PITCH_MARGIN
        points = _edge_constellation(kx * pitch, ky * pitch, radius)
        pairs = _assert_matches_brute_force(points, radius)
        # Beyond the 9 ulp-nudged anchors listing each other, partners
        # a whole radius away must be listed too.
        assert pairs > 9 * 8

    def test_small_radius_over_large_extent_sweeps(self):
        """A 1 m radius across 10 km: the pitch grows to keep the cell
        table small instead of giving up."""
        rng = random.Random(5)
        points = [(-5000.0, -5000.0), (5000.0, 5000.0)]
        for _ in range(150):
            x = rng.uniform(-5000.0, 5000.0)
            y = rng.uniform(-5000.0, 5000.0)
            points += [(x, y), (x + rng.uniform(-0.7, 0.7),
                                y + rng.uniform(-0.7, 0.7))]
        assert _assert_matches_brute_force(points, 1.0) >= 2 * 150

    def test_empty_population(self):
        numpy = pytest.importorskip("numpy")
        starts, flat = sweep.sweep_pairs(
            numpy.empty(0), numpy.empty(0), 10.0)
        assert starts == [0]
        assert flat.tolist() == []

    def test_gather_order(self):
        numpy = pytest.importorskip("numpy")
        assert sweep.gather(["a", "b", "c"],
                            numpy.array([2, 0, 2], dtype=numpy.int64)) \
            == ["c", "a", "c"]
