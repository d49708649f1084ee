"""Region partitions of the world plane: a 2D grid of tiles.

A partition answers two questions for the sharded engine:

* **Ownership** — which shard owns a device at position ``(x, y)``?
  Ownership is a pure function of the position, so every shard
  evaluates the same float expression and reaches the same verdict
  without any coordination.
* **Border coverage** — which shards need a device as a *ghost*?  Any
  shard whose territory lies within one halo width of the device could
  see it interact with an owned device during the next window, so the
  owner exports its state there at the window edge.

The engine asks both questions, plus the tile a device stands in, in
one ``route(x, y, halo)`` call.  For a walker it asks
``route_with_box(x, y, halo)``, which adds the box of positions around
it where that answer cannot change, so the walker is routed again only
once it leaves the box.  ``index_box(x, y, halo)`` names the tiles the
answer reads the map at, so after a map change only a device whose
index box holds a reassigned tile is routed again.

:class:`TilePartition` cuts the bounds into a grid of tiles with an
explicit tile→shard map.  Ownership is two floor-divisions and a table
lookup; ghost routing walks the tiles intersecting the halo box
(corners included).  Because the map is *data*, the coordinator can
reassign whole tiles between shards at a sync barrier — the dynamic
re-balancing that keeps clustered workloads spread across shards
(:mod:`repro.shard.balance`).

:func:`spec_for` names two presets (:data:`PARTITION_KINDS`).
``tile`` plans a grid of about :data:`TILES_PER_SHARD` tiles per
shard.  ``strip`` is the one-row grid ``(shards, 1)`` under the default
map: tile ``i`` is the vertical strip ``int((x - min_x) // (width /
shards))``, clamped, and shard ``i`` owns it.  Its exchange pattern is
linear, but a crowd that clusters inside one strip collapses the whole
run onto one shard.

:class:`PartitionSpec` is the picklable description that crosses to
worker processes inside :class:`~repro.shard.engine.ShardConfig`; the
engine materialises the live partition object from it.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
from dataclasses import dataclass

from repro.mobility.geometry import Rect

#: Partition presets :func:`spec_for` knows.
PARTITION_KINDS = ("strip", "tile")

#: Default tile granularity: tiles per shard the factory aims for.
#: Enough spare tiles that the greedy rebalancer can shave load in
#: small increments — a whole tile hotter than the per-shard mean can
#: never move, so tiles must be fine enough that one urban hotspot
#: spans several — yet few enough that the tile map stays tiny.
TILES_PER_SHARD = 64

#: Absolute tile-count cap — the map is broadcast at every rebalance,
#: so it must stay cheap to pickle even for 1M-device worlds.
MAX_TILES = 4096


def halo_width(radio_range: float, max_speed: float, window: float) -> float:
    """Conservative lookahead bound for one synchronisation window.

    A device owned by shard S may drift up to ``max_speed * window``
    metres past its territory edge before the next exchange, and a
    foreign device may simultaneously approach by the same amount; they
    interact when within ``radio_range``.  Any pair that can come
    within radio range during the window is therefore separated by at
    most ``radio_range + 2 * max_speed * window`` at the window's
    opening exchange — the halo width that makes the ghost set
    sufficient for the whole window.
    """
    if radio_range <= 0.0:
        raise ValueError(f"radio_range must be positive, got {radio_range!r}")
    if max_speed < 0.0:
        raise ValueError(f"max_speed must be non-negative, got {max_speed!r}")
    if window <= 0.0:
        raise ValueError(f"window must be positive, got {window!r}")
    return radio_range + 2.0 * max_speed * window


class TilePartition:
    """A grid of tiles with an explicit tile→shard assignment.

    The bounds are cut into ``tiles_x`` columns by ``tiles_y`` rows of
    equal tiles, indexed row-major (``tile = row * tiles_x + col``).
    ``tile_map[tile]`` names the owning shard.  Ownership stays a pure
    float function of the position (two floor-divisions, one lookup),
    so every shard reaches the same verdict; the *map* is plain data,
    broadcast by the coordinator whenever the rebalancer reassigns
    tiles.

    Ghost routing intersects the axis-aligned halo box ``[x-h, x+h] x
    [y-h, y+h]`` with the tile grid and collects the owners of every
    touched tile — including diagonal neighbours, so a device sitting
    on a four-tile corner is exported to all four owners.  The box
    over-approximates the halo disc, which is harmless (a spare ghost
    is dead weight, a missing one is a lost interaction), and its edge
    coordinates go through the *same* floor arithmetic as ownership,
    so a device exactly on a tile edge routes consistently.
    """

    __slots__ = ("bounds", "shards", "tiles_x", "tiles_y", "tile_width",
                 "tile_height", "tile_map", "_one_owner", "_owners",
                 "_spans")

    def __init__(self, bounds: Rect, shards: int,
                 tiles: tuple[int, int],
                 tile_map: tuple[int, ...] | None = None) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards!r}")
        tiles_x, tiles_y = tiles
        if tiles_x < 1 or tiles_y < 1:
            raise ValueError(f"tile grid must be >= 1x1, got {tiles!r}")
        self.bounds = bounds
        self.shards = shards
        self.tiles_x = tiles_x
        self.tiles_y = tiles_y
        self.tile_width = bounds.width / tiles_x
        self.tile_height = bounds.height / tiles_y
        if tile_map is None:
            tile_map = default_tile_map(tiles_x * tiles_y, shards)
        if len(tile_map) != tiles_x * tiles_y:
            raise ValueError(
                f"tile_map has {len(tile_map)} entries for a "
                f"{tiles_x}x{tiles_y} grid ({tiles_x * tiles_y} tiles)")
        bad = [shard for shard in tile_map if not 0 <= shard < shards]
        if bad:
            raise ValueError(f"tile_map names shards {sorted(set(bad))} "
                             f"outside [0, {shards})")
        self.tile_map = tuple(tile_map)
        #: Per tile: one shard owns the tile and every grid neighbour,
        #: so a halo box inside its 3x3 neighbourhood routes nowhere
        #: else.  Derived from the map, so a new map rebuilds it.
        self._one_owner = tuple(
            all(self.tile_map[neighbor] == owner
                for neighbor in self.tile_neighbors(tile))
            for tile, owner in enumerate(self.tile_map))
        #: ``(column_lo, column_hi, row_lo, row_hi)`` -> the sorted
        #: owners of that index box under this map.
        self._owners: dict[tuple[int, int, int, int], tuple[int, ...]] = {}
        #: ``(axis, halo, (index, index_lo, index_hi))`` -> the floats
        #: on that axis, inside the bounds, at which the indices of
        #: ``u``, ``u - halo`` and ``u + halo`` are that triple.  Grid
        #: geometry only: a copy under a new map shares it.
        self._spans: dict[tuple[int, float, tuple[int, int, int]],
                          tuple[float, float]] = {}

    # -- grid arithmetic ---------------------------------------------------

    def _column_of(self, x: float) -> int:
        return _grid_index(x, self.bounds.min_x, self.tile_width,
                           self.tiles_x - 1)

    def _row_of(self, y: float) -> int:
        return _grid_index(y, self.bounds.min_y, self.tile_height,
                           self.tiles_y - 1)

    def tile_index(self, x: float, y: float) -> int:
        """Row-major tile index holding ``(x, y)`` — total and pure."""
        return self._row_of(y) * self.tiles_x + self._column_of(x)

    def tile_bounds(self, tile: int) -> Rect:
        """The rectangle one tile covers."""
        self._check_tile(tile)
        row, column = divmod(tile, self.tiles_x)
        min_x = self.bounds.min_x + column * self.tile_width
        min_y = self.bounds.min_y + row * self.tile_height
        return Rect(min_x, min_y,
                    min_x + self.tile_width, min_y + self.tile_height)

    def _check_tile(self, tile: int) -> None:
        if not 0 <= tile < len(self.tile_map):
            raise ValueError(f"tile {tile} out of range "
                             f"[0, {len(self.tile_map)})")

    # -- ownership and routing ---------------------------------------------

    def owner_at(self, x: float, y: float) -> int:
        """Shard owning ``(x, y)`` — pure function of position + map."""
        return self.tile_map[self.tile_index(x, y)]

    def ghost_shards(self, x: float, y: float,
                     halo: float) -> tuple[int, ...]:
        """Sorted owners of every tile the halo box touches.

        Always contains the owner; covers diagonal (corner) neighbours
        because the box is 2D, not an interval.
        """
        if halo < 0.0:
            raise ValueError(f"halo must be non-negative, got {halo!r}")
        return self._box_owners(self._column_of(x - halo),
                                self._column_of(x + halo),
                                self._row_of(y - halo),
                                self._row_of(y + halo))

    def route(self, x: float, y: float,
              halo: float) -> tuple[int, int, tuple[int, ...]]:
        """``(tile_index, owner_at, ghost_shards)`` in one pass.

        The six column/row indices come from :func:`_axis_indices`,
        the same floor arithmetic as the separate calls.  When the halo
        box's indices stay inside the tile's 3x3 neighbourhood and one
        shard owns all of it, the ghost set is the owner alone; any
        other index box looks its owners up once per map.
        """
        if halo < 0.0:
            raise ValueError(f"halo must be non-negative, got {halo!r}")
        bounds = self.bounds
        return self._answer(
            _axis_indices(x, halo, bounds.min_x, self.tile_width,
                          self.tiles_x - 1),
            _axis_indices(y, halo, bounds.min_y, self.tile_height,
                          self.tiles_y - 1))

    def route_with_box(self, x: float, y: float, halo: float,
                       ) -> tuple[int, int, tuple[int, ...],
                                  tuple[float, float, float, float]]:
        """``route``'s answer and ``route_box``'s, from one set of
        indices: a walker's route and the box in which it holds.

        Per axis the box is the span of floats with the same index
        triple (of ``u``, ``u - halo`` and ``u + halo``), found once
        per grid, halo and triple, so a box costs two cache reads past
        the indices ``route`` computes.  ``(x, y)`` must lie inside the
        bounds.
        """
        if halo < 0.0:
            raise ValueError(f"halo must be non-negative, got {halo!r}")
        bounds = self.bounds
        columns = _axis_indices(x, halo, bounds.min_x, self.tile_width,
                                self.tiles_x - 1)
        rows = _axis_indices(y, halo, bounds.min_y, self.tile_height,
                             self.tiles_y - 1)
        lo_x, hi_x = self._span(0, x, halo, columns)
        lo_y, hi_y = self._span(1, y, halo, rows)
        return (*self._answer(columns, rows), (lo_x, hi_x, lo_y, hi_y))

    def _answer(self, columns: tuple[int, int, int],
                rows: tuple[int, int, int],
                ) -> tuple[int, int, tuple[int, ...]]:
        """The route read off the column and row index triples."""
        column, column_lo, column_hi = columns
        row, row_lo, row_hi = rows
        tile = row * self.tiles_x + column
        owner = self.tile_map[tile]
        if (self._one_owner[tile] and column - 1 <= column_lo
                and column_hi <= column + 1 and row - 1 <= row_lo
                and row_hi <= row + 1):
            return tile, owner, (owner,)
        key = (column_lo, column_hi, row_lo, row_hi)
        owners = self._owners.get(key)
        if owners is None:
            owners = self._owners[key] = self._box_owners(*key)
        return tile, owner, owners

    def index_box(self, x: float, y: float,
                  halo: float) -> tuple[int, int, int, int]:
        """``(column_lo, column_hi, row_lo, row_hi)``: the tiles the
        halo box around ``(x, y)`` spans, by the clamped floor
        arithmetic ``route`` applies.

        They hold the tile at ``(x, y)``, and ``route`` reads the map
        at them alone, so its answer changes with the map only where
        one of them changes owner.  The box does not depend on the
        map.  The four indices are :func:`_grid_index` written out
        inline, as in :func:`_axis_indices`: a map adoption asks for
        the box of every walker and of every stationary device that
        arrives or leaves.
        """
        bounds = self.bounds
        min_x = bounds.min_x
        min_y = bounds.min_y
        width = self.tile_width
        height = self.tile_height
        last_column = self.tiles_x - 1
        last_row = self.tiles_y - 1
        column_lo = int((x - halo - min_x) // width)
        column_lo = (0 if column_lo < 0 else
                     last_column if column_lo > last_column else column_lo)
        column_hi = int((x + halo - min_x) // width)
        column_hi = (0 if column_hi < 0 else
                     last_column if column_hi > last_column else column_hi)
        row_lo = int((y - halo - min_y) // height)
        row_lo = 0 if row_lo < 0 else last_row if row_lo > last_row else row_lo
        row_hi = int((y + halo - min_y) // height)
        row_hi = 0 if row_hi < 0 else last_row if row_hi > last_row else row_hi
        return column_lo, column_hi, row_lo, row_hi

    def route_box(self, x: float, y: float,
                  halo: float) -> tuple[float, float, float, float]:
        """``(lo_x, hi_x, lo_y, hi_y)``: the box of positions around
        ``(x, y)`` on which ``route(·, ·, halo)`` answers as at
        ``(x, y)``, under any map.

        ``route`` reads six clamped floor indices, three per axis: of
        the coordinate ``u``, of ``u - halo`` and of ``u + halo``.
        Each is monotone in ``u``, so the floats that keep one index
        form an interval, and the box is the intersection of the six.
        Each interval is found with the same arithmetic
        (:func:`_index_interval`), not a margin, so the box is exact:
        its edge keeps the answer, the next float past it changes an
        index, and it never leaves the bounds.  ``(x, y)`` must lie
        inside the bounds.
        """
        bounds = self.bounds
        if not (bounds.min_x <= x <= bounds.max_x
                and bounds.min_y <= y <= bounds.max_y):
            raise ValueError(f"({x!r}, {y!r}) lies outside {bounds!r}")
        return self.route_with_box(x, y, halo)[3]

    def _span(self, axis: int, value: float, halo: float,
              indices: tuple[int, int, int]) -> tuple[float, float]:
        """The floats on one axis, inside the bounds, whose indices of
        ``u``, ``u - halo`` and ``u + halo`` are ``indices``, as at
        ``value``: the intersection of the three index intervals."""
        key = (axis, halo, indices)
        span = self._spans.get(key)
        if span is not None:
            return span
        bounds = self.bounds
        if axis == 0:
            low, high = bounds.min_x, bounds.max_x
            step, last = self.tile_width, self.tiles_x - 1
        else:
            low, high = bounds.min_y, bounds.max_y
            step, last = self.tile_height, self.tiles_y - 1
        lo, hi = low, high
        for shift, index in zip((0.0, -halo, halo), indices, strict=True):
            interval = _index_interval(value, shift, index, low, high, step,
                                       last)
            lo = max(lo, interval[0])
            hi = min(hi, interval[1])
        span = self._spans[key] = (lo, hi)
        return span

    def _box_owners(self, column_lo: int, column_hi: int, row_lo: int,
                    row_hi: int) -> tuple[int, ...]:
        """Sorted owners of every tile in an index box."""
        tile_map = self.tile_map
        tiles_x = self.tiles_x
        owners = {tile_map[row * tiles_x + column]
                  for row in range(row_lo, row_hi + 1)
                  for column in range(column_lo, column_hi + 1)}
        return tuple(sorted(owners))

    # -- introspection (rebalancer, tests, diagnostics) --------------------

    def tile_neighbors(self, tile: int) -> tuple[int, ...]:
        """The up-to-eight grid neighbours of a tile, corners included."""
        self._check_tile(tile)
        row, column = divmod(tile, self.tiles_x)
        neighbors = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                nr, nc = row + dr, column + dc
                if 0 <= nr < self.tiles_y and 0 <= nc < self.tiles_x:
                    neighbors.append(nr * self.tiles_x + nc)
        return tuple(neighbors)

    def with_map(self, tile_map: tuple[int, ...]) -> TilePartition:
        """A copy of this partition under a new tile→shard map."""
        partition = TilePartition(self.bounds, self.shards,
                                  (self.tiles_x, self.tiles_y), tile_map)
        partition._spans = self._spans
        return partition

    def __repr__(self) -> str:
        return (f"TilePartition({self.tiles_x}x{self.tiles_y} tiles "
                f"x {self.tile_width:g}x{self.tile_height:g}m "
                f"-> {self.shards} shards)")


def _grid_index(value: float, origin: float, step: float, last: int) -> int:
    """Floor index of ``value`` on a grid of ``step``-wide cells from
    ``origin``, clamped to ``[0, last]`` — the one arithmetic tile
    ownership and ghost routing share."""
    index = int((value - origin) // step)
    if index < 0:
        return 0
    return last if index > last else index


def _axis_indices(value: float, halo: float, origin: float, step: float,
                  last: int) -> tuple[int, int, int]:
    """The clamped floor indices of ``value``, ``value - halo`` and
    ``value + halo`` on one axis: :func:`_grid_index` written out three
    times, for the routing calls."""
    index = int((value - origin) // step)
    index = 0 if index < 0 else last if index > last else index
    index_lo = int((value - halo - origin) // step)
    index_lo = 0 if index_lo < 0 else last if index_lo > last else index_lo
    index_hi = int((value + halo - origin) // step)
    index_hi = 0 if index_hi < 0 else last if index_hi > last else index_hi
    return index, index_lo, index_hi


def _index_interval(value: float, shift: float, index: int, low: float,
                    high: float, step: float, last: int,
                    ) -> tuple[float, float]:
    """The floats ``u`` in ``[low, high]`` at which
    ``_grid_index(u + shift, low, step, last)`` is ``index``, as it is
    at ``value``.

    The index flips where ``u + shift`` crosses a grid line ``low + k
    * step``; that nominal place starts the exact search on each side.
    """
    def holds(u: float) -> bool:
        return _grid_index(u + shift, low, step, last) == index

    lo = low
    if not holds(low):
        lo = _last_holding(holds, value, low, low + index * step - shift)
    hi = high
    if not holds(high):
        hi = _last_holding(holds, value, high,
                           low + (index + 1) * step - shift)
    return lo, hi


#: Single float steps :func:`_last_holding` takes from the nominal edge
#: before it bisects; the nominal edge is a few floats off at most,
#: except where the edge lies near zero and floats there are dense.
_MAX_STEPS = 16

_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<Q")
_SIGN = 1 << 63


def _ordinal(value: float) -> int:
    """An integer that orders as ``value`` does; adjacent floats are
    one apart."""
    (bits,) = _BITS.unpack(_DOUBLE.pack(value))
    return -(bits ^ _SIGN) if bits & _SIGN else bits


def _from_ordinal(ordinal: int) -> float:
    bits = (-ordinal) | _SIGN if ordinal < 0 else ordinal
    return _DOUBLE.unpack(_BITS.pack(bits))[0]


def _last_holding(holds: Callable[[float], bool], inside: float,
                  outside: float, nominal: float) -> float:
    """The last float on the way from ``inside`` to ``outside`` at
    which ``holds`` is true.

    ``holds`` is true at ``inside``, false at ``outside`` and flips
    once between them.  The search steps one float at a time with
    :func:`math.nextafter` from ``nominal``, the edge's expected place;
    past :data:`_MAX_STEPS` steps it bisects the floats left between
    the last true and the first false one.
    """
    good, bad = inside, outside
    probe = nominal
    if not min(inside, outside) < probe < max(inside, outside):
        probe = inside
    for _ in range(_MAX_STEPS):
        if holds(probe):
            good = probe
            probe = math.nextafter(probe, outside)
        else:
            bad = probe
            probe = math.nextafter(probe, inside)
        if probe == good or probe == bad:
            return good
    good_ordinal = _ordinal(good)
    bad_ordinal = _ordinal(bad)
    while abs(bad_ordinal - good_ordinal) > 1:
        middle = (good_ordinal + bad_ordinal) // 2
        if holds(_from_ordinal(middle)):
            good_ordinal = middle
        else:
            bad_ordinal = middle
    return _from_ordinal(good_ordinal)


def default_tile_map(tiles: int, shards: int) -> tuple[int, ...]:
    """Contiguous row-major blocks, balanced to within one tile.

    Tile ``t`` goes to shard ``t * shards // tiles`` — the same
    integer-arithmetic split everywhere, so every shard derives the
    identical initial map without coordination.
    """
    if tiles < 1:
        raise ValueError(f"tiles must be >= 1, got {tiles!r}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards!r}")
    return tuple(tile * shards // tiles for tile in range(tiles))


def plan_tile_grid(bounds: Rect, shards: int, halo: float, *,
                   tiles_per_shard: int = TILES_PER_SHARD,
                   max_tiles: int = MAX_TILES) -> tuple[int, int]:
    """Pick a tile grid: edges >= halo, ~``tiles_per_shard`` per shard.

    The halo floor keeps the ghost box within a 3x3 tile neighbourhood
    and bounds exchange fan-out; the per-shard target leaves the
    rebalancer enough granularity to shave load in small slices.  The
    grid is clamped so a tiny world still yields a legal (possibly
    1x1) tiling.
    """
    if halo <= 0.0:
        raise ValueError(f"halo must be positive, got {halo!r}")
    max_x = max(1, int(bounds.width // halo))
    max_y = max(1, int(bounds.height // halo))
    target = min(max_tiles, max(shards, shards * tiles_per_shard))
    aspect = bounds.width / bounds.height
    tiles_x = max(1, min(max_x, round((target * aspect) ** 0.5)))
    tiles_y = max(1, min(max_y, round(target / tiles_x)))
    return tiles_x, tiles_y


@dataclass(frozen=True)
class PartitionSpec:
    """Picklable partition description carried by the shard config.

    ``tiles`` is the ``(columns, rows)`` grid; ``tile_map=None`` means
    the balanced default map.  :meth:`build` materialises the live
    partition object; a rebalanced map is adopted through
    :meth:`TilePartition.with_map`.
    """

    tiles: tuple[int, int]
    tile_map: tuple[int, ...] | None = None

    def build(self, bounds: Rect, shards: int) -> TilePartition:
        """The live partition object for one shard."""
        return TilePartition(bounds, shards, self.tiles, self.tile_map)


def spec_for(kind: str, bounds: Rect, shards: int,
             halo: float) -> PartitionSpec:
    """The :class:`PartitionSpec` of one preset (:data:`PARTITION_KINDS`)."""
    if kind == "strip":
        return PartitionSpec(tiles=(shards, 1))
    if kind == "tile":
        return PartitionSpec(tiles=plan_tile_grid(bounds, shards, halo))
    raise ValueError(f"unknown partition kind {kind!r}; "
                     f"expected one of {PARTITION_KINDS}")
