"""Uniform spatial hash grid for O(cell occupancy) proximity queries.

``World.nodes_within`` used to scan every node for every query, which
made each discovery scan O(N) and a scan round O(N²) at crowd scale.
The grid buckets nodes into square cells keyed by integer coordinates;
a disc query only visits the cells its bounding square overlaps, so the
cost follows local density rather than world population.  The grid
answers membership only and keeps no change counters: the radio
medium's caches hold for one topology version of the medium's own.
"""

from __future__ import annotations

from repro.mobility.geometry import Point

#: A disc's cell cover reaches this multiple of the radius.  A point
#: the float test ``dx*dx + dy*dy <= r*r`` accepts can lie a few
#: rounding errors past ``center ± r``, and ``center - r`` itself
#: rounds: around a centre at ``y = 10`` with ``r = 10``, the test
#: accepts ``y = -5e-324`` although ``10.0 - 10.0`` is ``0.0``, one cell
#: higher.  The 2**-20 margin covers both wherever coordinates stay
#: below ~2**33 radii.
_COVER_MARGIN = 1.0 + 2.0 ** -20


class SpatialGrid:
    """Uniform hash grid over the plane.

    Args:
        cell_size: Edge length of one square cell in metres.  Queries
            are correct for any positive value; performance is best
            when it is close to the largest query radius in use (one
            disc then covers at most 3x3 cells).
    """

    __slots__ = ("cell_size", "_cells", "_where")

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0.0:
            raise ValueError(f"cell_size must be positive, got {cell_size!r}")
        self.cell_size = cell_size
        self._cells: dict[tuple[int, int], set[str]] = {}
        self._where: dict[str, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._where

    def key_for(self, x: float, y: float) -> tuple[int, int]:
        """Cell coordinates containing the point ``(x, y)``."""
        size = self.cell_size
        return (int(x // size), int(y // size))

    # -- membership ---------------------------------------------------------

    def insert(self, node_id: str, position: Point) -> None:
        """Add a node; raises if the id is already present."""
        if node_id in self._where:
            raise ValueError(f"node {node_id!r} already in grid")
        key = self.key_for(position.x, position.y)
        self._where[node_id] = key
        bucket = self._cells.get(key)
        if bucket is None:
            bucket = self._cells[key] = set()
        bucket.add(node_id)

    def remove(self, node_id: str) -> None:
        """Remove a node; raises ``KeyError`` if absent."""
        key = self._where.pop(node_id)
        bucket = self._cells[key]
        bucket.discard(node_id)
        if not bucket:
            del self._cells[key]

    def move(self, node_id: str, position: Point) -> None:
        """Re-bucket a node after a position change (a within-cell move
        costs one key comparison)."""
        new_key = self.key_for(position.x, position.y)
        old_key = self._where[node_id]
        if new_key == old_key:
            return
        self._where[node_id] = new_key
        bucket = self._cells[old_key]
        bucket.discard(node_id)
        if not bucket:
            del self._cells[old_key]
        new_bucket = self._cells.get(new_key)
        if new_bucket is None:
            new_bucket = self._cells[new_key] = set()
        new_bucket.add(node_id)

    # -- queries ------------------------------------------------------------

    def cell_range(self, center: Point,
                   radius: float) -> tuple[int, int, int, int]:
        """Inclusive cell-coordinate bounds covering the disc."""
        size = self.cell_size
        reach = radius * _COVER_MARGIN
        return (int((center.x - reach) // size),
                int((center.x + reach) // size),
                int((center.y - reach) // size),
                int((center.y + reach) // size))

    def candidates(self, center: Point, radius: float) -> list[str]:
        """Node ids in every cell the disc's bounding square overlaps.

        A superset of the nodes within ``radius``; callers filter by
        exact distance.  Cost is O(cells covered + occupants), which at
        bounded density is independent of world population.
        """
        min_cx, max_cx, min_cy, max_cy = self.cell_range(center, radius)
        cells = self._cells
        found: list[str] = []
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                bucket = cells.get((cx, cy))
                if bucket:
                    found.extend(bucket)
        return found

    # -- maintenance --------------------------------------------------------

    def rebuild(self, cell_size: float, positions: dict[str, Point]) -> None:
        """Re-bucket everything under a new cell size.

        Called when a technology with a larger radio range attaches and
        the world grows the cell size to match; O(N), but only ever
        triggered during scenario setup.
        """
        if cell_size <= 0.0:
            raise ValueError(f"cell_size must be positive, got {cell_size!r}")
        self.cell_size = cell_size
        self._cells.clear()
        self._where.clear()
        for node_id, position in positions.items():
            key = self.key_for(position.x, position.y)
            self._where[node_id] = key
            bucket = self._cells.get(key)
            if bucket is None:
                bucket = self._cells[key] = set()
            bucket.add(node_id)

    def __repr__(self) -> str:
        return (f"SpatialGrid(cell={self.cell_size:g}m, "
                f"{len(self._where)} nodes, {len(self._cells)} cells)")
