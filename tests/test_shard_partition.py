"""Partition geometry and the rebalancer — the sharded engine's map.

Ownership must be a total, pure function of position (every point maps
to exactly one shard, out-of-bounds clamps to the edge regions) and the
ghost routing set must cover every shard a device could interact with
during one window — for tiles that includes diagonal corner crossings.
These are the invariants the equivalence gate leans on, so they get
direct unit and property coverage here, alongside the greedy
rebalancer's contract: deterministic, terminating, load-conserving and
never making the spread worse.

The ``strip`` preset is the one-row tile grid ``(shards, 1)`` under the
default map.  Its tests check it against the strip arithmetic written
out below: the clamped ``int((x - min_x) // (width / shards))``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mobility.geometry import Point, Rect
from repro.shard.balance import imbalance, rebalance_map, shard_loads
from repro.shard.partition import (MAX_TILES, PartitionSpec, TilePartition,
                                   default_tile_map, halo_width,
                                   plan_tile_grid, spec_for)

BOUNDS = Rect(0.0, 0.0, 400.0, 400.0)
#: Bounds that do not start at the origin.
OFFSET_BOUNDS = Rect(-100.0, 0.0, 100.0, 50.0)


def strips(bounds: Rect, shards: int) -> TilePartition:
    """The ``strip`` preset (its grid ignores the halo)."""
    return spec_for("strip", bounds, shards, 1.0).build(bounds, shards)


def strip_of(bounds: Rect, shards: int, x: float) -> int:
    """Reference strip index of ``x``, clamped to the shard range."""
    index = int((x - bounds.min_x) // (bounds.width / shards))
    return min(max(index, 0), shards - 1)


def strip_route(bounds: Rect, shards: int, x: float,
                halo: float) -> tuple[int, int, tuple[int, ...]]:
    """Reference ``route``: strip ``i`` is tile ``i`` and shard ``i``,
    and a ghost goes to every strip ``[x - halo, x + halo]`` meets."""
    owner = strip_of(bounds, shards, x)
    return owner, owner, tuple(range(strip_of(bounds, shards, x - halo),
                                     strip_of(bounds, shards, x + halo) + 1))


class TestHaloWidth:
    def test_lookahead_bound(self):
        # R + 2 v W: both endpoints of a pair can close the gap.
        assert halo_width(60.0, 1.5, 5.0) == 60.0 + 2.0 * 1.5 * 5.0

    def test_stationary_crowd_needs_only_radio_range(self):
        assert halo_width(60.0, 0.0, 5.0) == 60.0

    @pytest.mark.parametrize(("radio", "speed", "window"), [
        (0.0, 1.0, 5.0), (-1.0, 1.0, 5.0),
        (60.0, -0.1, 5.0),
        (60.0, 1.0, 0.0), (60.0, 1.0, -2.0),
    ])
    def test_invalid_parameters_rejected(self, radio, speed, window):
        with pytest.raises(ValueError):
            halo_width(radio, speed, window)


class TestOwnership:
    def test_interior_points(self):
        partition = strips(BOUNDS, 4)
        assert partition.owner_at(0.0, 10.0) == 0
        assert partition.owner_at(99.9, 10.0) == 0
        assert partition.owner_at(100.0, 10.0) == 1
        assert partition.owner_at(399.9, 10.0) == 3

    def test_right_edge_belongs_to_last_strip(self):
        partition = strips(BOUNDS, 4)
        assert partition.owner_at(400.0, 10.0) == 3

    def test_out_of_bounds_clamps_to_edge_strips(self):
        partition = strips(BOUNDS, 4)
        assert partition.owner_at(-5.0, 10.0) == 0
        assert partition.owner_at(1e9, 10.0) == 3
        # Strips span the whole height, and beyond it.
        assert partition.owner_at(150.0, -1e9) == 1
        assert partition.owner_at(150.0, 1e9) == 1

    def test_single_shard_owns_everything(self):
        partition = strips(BOUNDS, 1)
        assert partition.owner_at(-1.0, 10.0) == 0
        assert partition.owner_at(200.0, 10.0) == 0
        assert partition.owner_at(401.0, 10.0) == 0

    def test_offset_bounds(self):
        partition = strips(OFFSET_BOUNDS, 2)
        assert partition.owner_at(-100.0, 10.0) == 0
        assert partition.owner_at(-0.1, 10.0) == 0
        assert partition.owner_at(0.0, 10.0) == 1

    def test_invalid_shard_count_rejected(self):
        for shards in (0, -3):
            with pytest.raises(ValueError):
                strips(BOUNDS, shards)
            with pytest.raises(ValueError):
                TilePartition(BOUNDS, shards, (2, 2))

    @given(x=st.floats(min_value=-50.0, max_value=450.0,
                       allow_nan=False, allow_infinity=False),
           shards=st.integers(min_value=1, max_value=9))
    def test_ownership_is_total(self, x, shards):
        partition = strips(BOUNDS, shards)
        assert partition.owner_at(x, 10.0) == strip_of(BOUNDS, shards, x)
        assert 0 <= partition.owner_at(x, 10.0) < shards


class TestStripInterval:
    """Under the ``strip`` preset tile ``i`` is strip ``i``."""

    def test_intervals_tile_the_bounds(self):
        partition = strips(BOUNDS, 4)
        edges = [partition.tile_bounds(i) for i in range(4)]
        assert edges[0].min_x == BOUNDS.min_x
        assert edges[-1].max_x == BOUNDS.max_x
        for left, right in zip(edges, edges[1:]):
            assert left.max_x == right.min_x
        for edge in edges:
            assert (edge.min_y, edge.max_y) == (BOUNDS.min_y, BOUNDS.max_y)

    def test_out_of_range_shard_id_rejected(self):
        partition = strips(BOUNDS, 4)
        with pytest.raises(ValueError):
            partition.tile_bounds(4)
        with pytest.raises(ValueError):
            partition.tile_bounds(-1)


class TestShardsWithin:
    def test_interior_device_far_from_borders_stays_home(self):
        partition = strips(BOUNDS, 4)
        assert partition.ghost_shards(50.0, 10.0, 20.0) == (0,)

    def test_border_device_covers_both_neighbours(self):
        partition = strips(BOUNDS, 4)
        assert partition.ghost_shards(100.0, 10.0, 20.0) == (0, 1)

    def test_halo_wider_than_strip_spans_several_shards(self):
        partition = strips(BOUNDS, 8)  # 50 m strips
        assert partition.ghost_shards(200.0, 10.0, 120.0) == (1, 2, 3, 4,
                                                             5, 6)

    def test_negative_halo_rejected(self):
        partition = strips(BOUNDS, 4)
        with pytest.raises(ValueError):
            partition.ghost_shards(50.0, 10.0, -1.0)

    @given(x=st.floats(min_value=0.0, max_value=400.0,
                       allow_nan=False, allow_infinity=False),
           halo=st.floats(min_value=0.0, max_value=200.0,
                          allow_nan=False, allow_infinity=False),
           shards=st.integers(min_value=1, max_value=9))
    def test_routing_set_always_contains_the_owner(self, x, halo, shards):
        partition = strips(BOUNDS, shards)
        assert partition.owner_at(x, 10.0) in partition.ghost_shards(
            x, 10.0, halo)


# -- tile partitions --------------------------------------------------------

grids = st.tuples(st.integers(min_value=1, max_value=6),
                  st.integers(min_value=1, max_value=6))
coords = st.floats(min_value=-50.0, max_value=450.0,
                   allow_nan=False, allow_infinity=False)


def _random_tile_partition(tiles: tuple[int, int], shards: int,
                           seed: int) -> TilePartition:
    """A tile partition whose map is scrambled (but valid) — the
    properties must hold for *any* map, not just the balanced default,
    because the rebalancer produces arbitrary assignments."""
    count = tiles[0] * tiles[1]
    tile_map = tuple((tile * (seed % 7 + 1) + seed) % shards
                     for tile in range(count))
    return TilePartition(BOUNDS, shards, tiles, tile_map)


class TestTileOwnership:
    def test_row_major_indexing(self):
        partition = TilePartition(BOUNDS, 4, (4, 4))
        assert partition.tile_index(50.0, 50.0) == 0
        assert partition.tile_index(150.0, 50.0) == 1
        assert partition.tile_index(50.0, 150.0) == 4
        assert partition.tile_index(399.0, 399.0) == 15

    def test_out_of_bounds_clamps_to_edge_tiles(self):
        partition = TilePartition(BOUNDS, 4, (4, 4))
        assert partition.tile_index(-10.0, -10.0) == 0
        assert partition.tile_index(1e9, 1e9) == 15

    def test_tile_bounds_contains_interior_points(self):
        partition = TilePartition(BOUNDS, 2, (4, 4))
        for x, y in [(10.0, 10.0), (250.0, 130.0), (399.9, 399.9)]:
            rect = partition.tile_bounds(partition.tile_index(x, y))
            assert rect.min_x <= x <= rect.max_x
            assert rect.min_y <= y <= rect.max_y

    def test_bad_maps_rejected(self):
        with pytest.raises(ValueError):
            TilePartition(BOUNDS, 2, (2, 2), (0, 1, 0))  # wrong length
        with pytest.raises(ValueError):
            TilePartition(BOUNDS, 2, (2, 2), (0, 1, 0, 2))  # shard 2 of 2
        with pytest.raises(ValueError):
            TilePartition(BOUNDS, 2, (0, 2))

    @given(x=coords, y=coords, tiles=grids,
           shards=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=999))
    def test_exactly_one_owner_everywhere(self, x, y, tiles, shards, seed):
        partition = _random_tile_partition(tiles, shards, seed)
        tile = partition.tile_index(x, y)
        assert 0 <= tile < tiles[0] * tiles[1]
        assert partition.owner_at(x, y) == partition.tile_map[tile]
        assert 0 <= partition.owner_at(x, y) < shards


class TestTileAdjacency:
    def test_interior_tile_has_eight_neighbors(self):
        partition = TilePartition(BOUNDS, 1, (4, 4))
        assert len(partition.tile_neighbors(5)) == 8

    def test_corner_tile_has_three_neighbors(self):
        partition = TilePartition(BOUNDS, 1, (4, 4))
        assert partition.tile_neighbors(0) == (1, 4, 5)

    @given(tiles=grids)
    def test_adjacency_is_symmetric(self, tiles):
        partition = TilePartition(BOUNDS, 1, tiles)
        count = tiles[0] * tiles[1]
        for tile in range(count):
            for neighbor in partition.tile_neighbors(tile):
                assert tile in partition.tile_neighbors(neighbor)


class TestTileGhosts:
    def test_four_corner_crossing_routes_to_all_owners(self):
        """A device on a four-tile corner must ghost to all four owning
        shards — the diagonal case a strip partition never has."""
        partition = TilePartition(BOUNDS, 4, (2, 2), (0, 1, 2, 3))
        assert partition.ghost_shards(200.0, 200.0, 5.0) == (0, 1, 2, 3)

    def test_interior_device_ghosts_only_to_owner(self):
        partition = TilePartition(BOUNDS, 4, (2, 2), (0, 1, 2, 3))
        assert partition.ghost_shards(100.0, 100.0, 5.0) == (0,)

    def test_negative_halo_rejected(self):
        partition = TilePartition(BOUNDS, 2, (2, 2))
        with pytest.raises(ValueError):
            partition.ghost_shards(10.0, 10.0, -1.0)

    @given(x=coords, y=coords, tiles=grids,
           halo=st.floats(min_value=0.0, max_value=150.0,
                          allow_nan=False, allow_infinity=False),
           shards=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=999))
    def test_ghost_set_contains_owner_and_is_sorted(self, x, y, tiles,
                                                    halo, shards, seed):
        partition = _random_tile_partition(tiles, shards, seed)
        ghosts = partition.ghost_shards(x, y, halo)
        assert partition.owner_at(x, y) in ghosts
        assert list(ghosts) == sorted(set(ghosts))

    @given(x=coords, y=coords, tiles=grids,
           halo=st.floats(min_value=0.0, max_value=150.0,
                          allow_nan=False, allow_infinity=False),
           dx=st.floats(min_value=-1.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False),
           dy=st.floats(min_value=-1.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False),
           shards=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=999))
    def test_ghost_set_covers_every_reachable_owner(self, x, y, tiles, halo,
                                                    dx, dy, shards, seed):
        """Brute-force coverage: the owner of *any* position inside the
        halo box (diagonals included) appears in the ghost set — the
        invariant the window-equivalence proof leans on."""
        partition = _random_tile_partition(tiles, shards, seed)
        ghosts = partition.ghost_shards(x, y, halo)
        assert partition.owner_at(x + dx * halo, y + dy * halo) in ghosts


@st.composite
def route_cases(draw) -> tuple[TilePartition, float, float, float]:
    """A tile partition under a map installed with ``with_map``, and a
    point and halo that hit the grid's edge cases.

    Maps are one shard, contiguous blocks or scrambled, each with a few
    *island* tiles reassigned, so tiles whose 3x3 neighbourhood has one
    owner sit next to tiles that do not.  Points fall on and just
    beside the edges and corners near an island, or anywhere including
    outside the bounds (clamped); halos go up to two tile edges.
    """
    tiles_x, tiles_y = draw(st.tuples(st.integers(min_value=1, max_value=8),
                                      st.integers(min_value=1, max_value=8)))
    shards = draw(st.integers(min_value=1, max_value=8))
    count = tiles_x * tiles_y
    owners = st.integers(min_value=0, max_value=shards - 1)
    tile_map = list(draw(st.one_of(
        st.just((0,) * count), st.just(default_tile_map(count, shards)),
        st.lists(owners, min_size=count, max_size=count))))
    islands = draw(st.lists(st.integers(0, count - 1), min_size=1,
                            max_size=3))
    for tile in islands:
        tile_map[tile] = draw(owners)
    partition = TilePartition(BOUNDS, shards, (tiles_x, tiles_y)).with_map(
        tuple(tile_map))
    width = partition.tile_width
    height = partition.tile_height
    halo = draw(st.one_of(
        st.floats(min_value=0.0, max_value=150.0,
                  allow_nan=False, allow_infinity=False),
        st.sampled_from([width, height, 1.5 * width, 2.0 * height])))
    row, column = divmod(draw(st.sampled_from(islands)), tiles_x)

    def coordinate(origin: float, step: float, cell: int) -> float:
        edge = origin + (cell + draw(st.integers(-1, 2))) * step
        return draw(st.one_of(
            coords, st.just(edge),
            st.floats(min_value=-1.0, max_value=1.0).map(
                lambda share: edge + share * halo)))

    x = coordinate(BOUNDS.min_x, width, column)
    y = coordinate(BOUNDS.min_y, height, row)
    return partition, x, y, halo


class TestOnePassRoute:
    """``route`` answers the engine's three questions in one call and
    must agree with each of the separate ones exactly."""

    @settings(max_examples=500)
    @given(case=route_cases())
    # The one-owner shortcut's two ways to go wrong: an island only
    # diagonally adjacent, and a halo box two columns wide.
    @example(case=(TilePartition(BOUNDS, 2, (4, 4),
                                 (0,) * 10 + (1,) + (0,) * 5),
                   195.0, 195.0, 10.0))
    @example(case=(TilePartition(BOUNDS, 2, (6, 1), (1,) + (0,) * 5),
                   140.0, 10.0, 80.0))
    def test_tile_route_equals_separate_calls(self, case):
        partition, x, y, halo = case
        assert partition.route(x, y, halo) == (
            partition.tile_index(x, y), partition.owner_at(x, y),
            partition.ghost_shards(x, y, halo))

    @given(shards=st.integers(min_value=1, max_value=9),
           bounds=st.sampled_from([BOUNDS, OFFSET_BOUNDS]),
           x=st.one_of(coords, st.integers(-2, 11)),
           ulps=st.sampled_from([-1, 0, 1]),
           y=coords, edge_halo=st.sampled_from([None, 1.0, 1.5, 2.5]),
           halo=st.floats(min_value=0.0, max_value=200.0,
                          allow_nan=False, allow_infinity=False))
    # The strip edge at x = 100 of four 100 m strips, and one ulp
    # either side, with a halo of exactly one strip.
    @example(shards=4, bounds=BOUNDS, x=1, ulps=0, y=10.0, edge_halo=1.0,
             halo=0.0)
    @example(shards=4, bounds=BOUNDS, x=1, ulps=-1, y=10.0, edge_halo=1.0,
             halo=0.0)
    @example(shards=4, bounds=BOUNDS, x=1, ulps=1, y=10.0, edge_halo=1.0,
             halo=0.0)
    def test_strip_route_equals_separate_calls(self, shards, bounds, x,
                                               ulps, y, edge_halo, halo):
        """The preset routes as the strip arithmetic does: on strip
        edges and one ulp either side, over offset bounds, and with
        halos of one strip or wider."""
        width = bounds.width / shards
        if isinstance(x, int):  # a strip-edge coordinate
            x = bounds.min_x + x * width
            for _ in range(abs(ulps)):
                x = math.nextafter(x, math.copysign(math.inf, ulps))
        if edge_halo is not None:
            halo = edge_halo * width
        partition = strips(bounds, shards)
        assert partition.route(x, y, halo) == strip_route(bounds, shards,
                                                          x, halo)
        assert partition.route(x, y, halo) == (
            partition.tile_index(x, y), partition.owner_at(x, y),
            partition.ghost_shards(x, y, halo))

    def test_negative_halo_rejected(self):
        with pytest.raises(ValueError):
            TilePartition(BOUNDS, 2, (2, 2)).route(10.0, 10.0, -1.0)
        with pytest.raises(ValueError):
            strips(BOUNDS, 2).route(10.0, 10.0, -1.0)


def grid_indices(partition: TilePartition, x: float, y: float,
                 halo: float) -> tuple[int, ...]:
    """The six clamped floor indices ``route`` reads, written out."""
    def index(value: float, origin: float, step: float, count: int) -> int:
        return min(max(int((value - origin) // step), 0), count - 1)

    bounds = partition.bounds
    return tuple(
        index(value + shift, origin, step, count)
        for value, origin, step, count in (
            (x, bounds.min_x, partition.tile_width, partition.tiles_x),
            (y, bounds.min_y, partition.tile_height, partition.tiles_y))
        for shift in (0.0, -halo, halo))


def _nudge(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


class TestRouteBox:
    """A walker re-routes only once it leaves ``route_box``, so the box
    must be exact: ``route`` answers as at its centre everywhere in it,
    and one float past any edge inside the bounds moves an index."""

    @settings(max_examples=400)
    @given(case=route_cases(), ulps_x=st.sampled_from([-1, 0, 1]),
           ulps_y=st.sampled_from([-1, 0, 1]))
    # An edge near zero, where single float steps from the nominal
    # edge would never arrive: the search has to bisect.
    @example(case=(TilePartition(OFFSET_BOUNDS, 2, (2, 1)), -50.0, 25.0,
                   0.0), ulps_x=0, ulps_y=0)
    @example(case=(TilePartition(OFFSET_BOUNDS, 2, (2, 1)), 50.0, 25.0,
                   0.0), ulps_x=0, ulps_y=0)
    # No halo: the three indices of an axis coincide.
    @example(case=(TilePartition(BOUNDS, 3, (4, 4)), 100.0, 300.0, 0.0),
             ulps_x=-1, ulps_y=1)
    def test_box_is_exact(self, case, ulps_x, ulps_y):
        partition, x, y, halo = case
        bounds = partition.bounds
        point = bounds.clamp(Point(_nudge(x, ulps_x), _nudge(y, ulps_y)))
        x, y = point.x, point.y
        lo_x, hi_x, lo_y, hi_y = partition.route_box(x, y, halo)
        assert bounds.min_x <= lo_x <= x <= hi_x <= bounds.max_x
        assert bounds.min_y <= lo_y <= y <= hi_y <= bounds.max_y
        here = grid_indices(partition, x, y, halo)
        answer = partition.route(x, y, halo)
        for corner_x in (lo_x, x, hi_x):
            for corner_y in (lo_y, y, hi_y):
                assert grid_indices(partition, corner_x, corner_y,
                                    halo) == here
                assert partition.route(corner_x, corner_y, halo) == answer
        if hi_x < bounds.max_x:
            assert grid_indices(partition, math.nextafter(hi_x, math.inf),
                                y, halo) != here
        if lo_x > bounds.min_x:
            assert grid_indices(partition, math.nextafter(lo_x, -math.inf),
                                y, halo) != here
        if hi_y < bounds.max_y:
            assert grid_indices(partition, x, math.nextafter(hi_y, math.inf),
                                halo) != here
        if lo_y > bounds.min_y:
            assert grid_indices(partition, x,
                                math.nextafter(lo_y, -math.inf), halo) != here

    @settings(max_examples=300)
    @given(case=route_cases(), ulps_x=st.sampled_from([-1, 0, 1]))
    def test_route_with_box_is_route_and_box(self, case, ulps_x):
        """A walker's one call answers as the two separate ones, from
        a cold cache or from spans an earlier point with the same index
        triples left behind."""
        partition, x, y, halo = case
        point = partition.bounds.clamp(Point(_nudge(x, ulps_x), y))
        x, y = point.x, point.y
        expected = (*partition.route(x, y, halo),
                    partition.route_box(x, y, halo))
        cold = TilePartition(partition.bounds, partition.shards,
                             (partition.tiles_x, partition.tiles_y),
                             partition.tile_map)
        assert cold.route_with_box(x, y, halo) == expected
        assert partition.route_with_box(x, y, halo) == expected
        lo_x, hi_x, lo_y, hi_y = expected[3]
        assert partition.route_with_box(lo_x, hi_y, halo)[3] == expected[3]

    def test_map_does_not_move_the_box(self):
        partition = TilePartition(BOUNDS, 2, (4, 4))
        remapped = partition.with_map((1,) * 8 + (0,) * 8)
        assert (partition.route_box(130.0, 250.0, 30.0)
                == remapped.route_box(130.0, 250.0, 30.0))
        assert (partition.route(130.0, 250.0, 30.0)
                != remapped.route(130.0, 250.0, 30.0))

    def test_point_outside_the_bounds_rejected(self):
        with pytest.raises(ValueError):
            TilePartition(BOUNDS, 2, (2, 2)).route_box(-1.0, 10.0, 5.0)


class TestTileMapsAndPlanning:
    @given(tiles=st.integers(min_value=1, max_value=200),
           shards=st.integers(min_value=1, max_value=16))
    def test_default_map_is_balanced_and_contiguous(self, tiles, shards):
        tile_map = default_tile_map(tiles, shards)
        counts = [tile_map.count(shard) for shard in range(shards)]
        busy = [count for count in counts if count]
        assert max(busy) - min(busy) <= 1
        assert list(tile_map) == sorted(tile_map)  # contiguous blocks

    @given(shards=st.integers(min_value=1, max_value=16),
           halo=st.floats(min_value=10.0, max_value=400.0,
                          allow_nan=False, allow_infinity=False))
    def test_planned_tiles_respect_the_halo_floor(self, shards, halo):
        tiles_x, tiles_y = plan_tile_grid(BOUNDS, shards, halo)
        assert 1 <= tiles_x * tiles_y <= MAX_TILES
        assert BOUNDS.width / tiles_x >= min(halo, BOUNDS.width)
        assert BOUNDS.height / tiles_y >= min(halo, BOUNDS.height)

    def test_spec_roundtrip(self):
        spec = spec_for("tile", BOUNDS, 4, 70.0)
        assert spec == PartitionSpec(tiles=plan_tile_grid(BOUNDS, 4, 70.0))
        partition = spec.build(BOUNDS, 4)
        assert (partition.tiles_x, partition.tiles_y) == spec.tiles
        assert spec_for("strip", BOUNDS, 4, 70.0) == PartitionSpec(
            tiles=(4, 1))
        strip = spec_for("strip", BOUNDS, 4, 70.0).build(BOUNDS, 4)
        assert strip.tile_map == (0, 1, 2, 3)
        with pytest.raises(ValueError):
            spec_for("hex", BOUNDS, 4, 70.0)


# -- the greedy rebalancer --------------------------------------------------

load_cases = st.integers(min_value=2, max_value=60).flatmap(
    lambda tiles: st.tuples(
        st.just(tiles),
        st.integers(min_value=1, max_value=8),
        st.dictionaries(st.integers(min_value=0, max_value=tiles - 1),
                        st.integers(min_value=0, max_value=100),
                        max_size=tiles)))


class TestRebalancer:
    def test_hot_strip_is_spread_out(self):
        # All the load on shard 0's tiles: the greedy must hand some off.
        tile_map = default_tile_map(8, 2)
        loads = {0: 10, 1: 10, 2: 10, 3: 10}
        new_map, moves = rebalance_map(tile_map, loads, 2)
        assert moves > 0
        assert imbalance(shard_loads(new_map, loads, 2)) < \
            imbalance(shard_loads(tile_map, loads, 2))

    def test_single_hot_tile_cannot_be_split(self):
        # One tile heavier than everything else: no whole-tile move
        # helps, so the map must come back unchanged rather than churn.
        tile_map = default_tile_map(4, 2)
        new_map, moves = rebalance_map(tile_map, {0: 1000, 3: 1}, 2)
        assert moves == 0
        assert new_map == tile_map

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            rebalance_map((0, 1), {0: 5}, 2, threshold=0.5)

    @settings(max_examples=60)
    @given(case=load_cases)
    def test_rebalance_is_deterministic(self, case):
        tiles, shards, loads = case
        tile_map = default_tile_map(tiles, shards)
        assert rebalance_map(tile_map, loads, shards) == \
            rebalance_map(tile_map, loads, shards)

    @settings(max_examples=60)
    @given(case=load_cases)
    def test_rebalance_never_worsens_the_spread(self, case):
        tiles, shards, loads = case
        tile_map = default_tile_map(tiles, shards)
        new_map, moves = rebalance_map(tile_map, loads, shards)
        assert len(new_map) == tiles
        assert all(0 <= owner < shards for owner in new_map)
        before = shard_loads(tile_map, loads, shards)
        after = shard_loads(new_map, loads, shards)
        assert sum(after) == sum(before)  # load is conserved
        assert imbalance(after) <= imbalance(before)
        if moves == 0:
            assert new_map == tile_map
