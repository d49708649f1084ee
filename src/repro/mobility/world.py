"""The mobile world: nodes, positions and proximity queries.

Proximity queries are served by a uniform :class:`~repro.mobility.grid.
SpatialGrid` so ``nodes_within`` costs O(cell occupancy) instead of
O(N).  Every change of position or population is one
:class:`MovementReport` to the listeners (a tick that moved nobody
sends none); the radio medium starts a new topology version on each.
The grid is the only proximity path; ``tests/test_spatial_grid.py``
checks it against an O(N²) model kept in the test.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from repro.mobility.geometry import Point, Rect, distance
from repro.mobility.grid import SpatialGrid
from repro.mobility.models import MobilityModel, Stationary
from repro.simenv import Environment, PeriodicTimer

#: Starting grid cell size; ``require_cell_size`` grows it to the
#: largest attached local-radio range (e.g. 60 m once WLAN attaches).
DEFAULT_CELL_SIZE = 25.0


class MobileNode:
    """A device's physical presence in the world.

    Assigning ``model`` while the node is in a world tells the world,
    which ticks only the nodes whose model is not :class:`Stationary`.
    """

    __slots__ = ("node_id", "position", "_model", "_world")

    def __init__(self, node_id: str, position: Point,
                 model: MobilityModel | None = None) -> None:
        self.node_id = node_id
        self.position = position
        self._model: MobilityModel = (model if model is not None
                                      else Stationary())
        self._world: World | None = None

    @property
    def model(self) -> MobilityModel:
        return self._model

    @model.setter
    def model(self, model: MobilityModel) -> None:
        self._model = model
        if self._world is not None:
            self._world._model_changed(self)

    def __repr__(self) -> str:
        return (f"MobileNode({self.node_id!r}, "
                f"({self.position.x:.1f}, {self.position.y:.1f}))")


class MovementReport:
    """What changed in one notification: which nodes, and how.

    ``moved`` lists every node whose position changed; ``added`` and
    ``removed`` cover population changes.
    """

    __slots__ = ("moved", "added", "removed")

    def __init__(self, moved: tuple[str, ...] = (),
                 added: tuple[str, ...] = (),
                 removed: tuple[str, ...] = ()) -> None:
        self.moved = moved
        self.added = added
        self.removed = removed

    def __repr__(self) -> str:
        return (f"MovementReport(moved={len(self.moved)}, "
                f"added={len(self.added)}, removed={len(self.removed)})")


class World:
    """Bounded 2D plane holding every mobile node.

    The world ticks positions forward on a periodic timer and notifies
    movement listeners after each tick.  A tick steps only the movers,
    the nodes whose model is not :class:`Stationary`, in the order the
    nodes were added.  The radio
    :class:`~repro.radio.medium.Medium` is the primary listener: it
    re-derives link reachability from the new positions.

    Args:
        env: Simulation environment providing time and randomness.
        bounds: Simulated area; defaults to a 200 m x 200 m square —
            generous for the Bluetooth-scale neighbourhoods of the paper.
        tick: Seconds between position updates.
        cell_size: Initial spatial-grid cell edge; grown on demand by
            :meth:`require_cell_size`.  ``None`` picks the default.
    """

    def __init__(self, env: Environment, bounds: Rect | None = None,
                 tick: float = 0.5, cell_size: float | None = None) -> None:
        self.env = env
        self.bounds = bounds if bounds is not None else Rect(0.0, 0.0, 200.0, 200.0)
        self.tick = tick
        self._nodes: dict[str, MobileNode] = {}
        #: The nodes whose model is not ``Stationary``, in ``_nodes``
        #: order: the only ones a tick steps.
        self._movers: dict[str, MobileNode] = {}
        self._listeners: list[Callable[[MovementReport], None]] = []
        self._grid = SpatialGrid(
            cell_size if cell_size is not None else DEFAULT_CELL_SIZE)
        self._timer = PeriodicTimer(env, tick, self._advance)
        self._last_tick_time = env.now

    @property
    def grid(self) -> SpatialGrid:
        """The backing spatial index."""
        return self._grid

    # -- population -------------------------------------------------------

    def add_node(self, node_id: str, position: Point,
                 model: MobilityModel | None = None) -> MobileNode:
        """Place a new node; raises if the id already exists."""
        return self.add_nodes(((node_id, position, model),))[0]

    def add_nodes(self, placements: Iterable[tuple[str, Point,
                                                   MobilityModel | None]],
                  ) -> list[MobileNode]:
        """Place new nodes in order, with one notification for them all.

        Each ``(node_id, position, model)`` is placed as
        :meth:`add_node` places one.  An id already in the world raises
        ``ValueError``; the nodes placed before it stay, and are
        reported.
        """
        nodes = self._nodes
        movers = self._movers
        bounds = self.bounds
        insert = self._grid.insert
        added: list[MobileNode] = []
        ids: list[str] = []
        try:
            for node_id, position, model in placements:
                if node_id in nodes:
                    raise ValueError(f"node {node_id!r} already in world")
                if not bounds.contains(position):
                    position = bounds.clamp(position)
                node = MobileNode(node_id, position, model)
                node._world = self
                nodes[node_id] = node
                if type(node._model) is not Stationary:
                    movers[node_id] = node
                insert(node_id, position)
                added.append(node)
                ids.append(node_id)
        finally:
            if ids:
                self._notify(MovementReport(added=tuple(ids)))
        return added

    def remove_node(self, node_id: str) -> None:
        """Remove a node (device switched off / left the simulation)."""
        self.remove_nodes((node_id,))

    def remove_nodes(self, node_ids: Iterable[str]) -> None:
        """Remove nodes, with one notification for them all.

        An id not in the world raises ``KeyError``; the nodes removed
        before it stay removed, and are reported.
        """
        nodes = self._nodes
        movers = self._movers
        remove = self._grid.remove
        removed: list[str] = []
        try:
            for node_id in node_ids:
                node = nodes.pop(node_id, None)
                if node is None:
                    raise KeyError(f"node {node_id!r} not in world")
                node._world = None
                movers.pop(node_id, None)
                remove(node_id)
                removed.append(node_id)
        finally:
            if removed:
                self._notify(MovementReport(removed=tuple(removed)))

    def node(self, node_id: str) -> MobileNode:
        """Look up a node by id."""
        return self._nodes[node_id]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[MobileNode]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    # -- queries ---------------------------------------------------------

    def distance_between(self, a: str, b: str) -> float:
        """Metres between two nodes."""
        return distance(self._nodes[a].position, self._nodes[b].position)

    def nodes_within(self, node_id: str, radius: float) -> list[MobileNode]:
        """All *other* nodes within ``radius`` metres of ``node_id``.

        Sorted by node id so callers see a deterministic order
        regardless of which grid cells the neighbours came from.
        """
        nodes = self._nodes
        center = nodes[node_id].position
        cx, cy = center.x, center.y
        # Compare squared distances: one multiply beats a libm hypot
        # call per candidate, and this loop runs for every discovery
        # scan of every device.
        radius_sq = radius * radius
        found = []
        for other_id in self._grid.candidates(center, radius):
            node = nodes[other_id]
            position = node.position
            dx = position.x - cx
            dy = position.y - cy
            if dx * dx + dy * dy <= radius_sq and other_id != node_id:
                found.append(node)
        found.sort(key=lambda node: node.node_id)
        return found

    # -- grid maintenance -------------------------------------------------

    def require_cell_size(self, range_m: float) -> None:
        """Grow the grid cell to at least ``range_m`` metres.

        Called by the radio medium when a local technology attaches, so
        the cell size tracks the largest radio range in use and a
        neighbour query touches a handful of cells.
        """
        grid = self._grid
        if range_m <= grid.cell_size:
            return
        grid.rebuild(range_m, {node_id: node.position
                               for node_id, node in self._nodes.items()})

    # -- movement ------------------------------------------------------------

    def move_node(self, node_id: str, position: Point) -> None:
        """Teleport a node (used by tests and scenario setup)."""
        node = self._nodes[node_id]
        node.position = self.bounds.clamp(position)
        self._grid.move(node_id, node.position)
        self._notify(MovementReport(moved=(node_id,)))

    def on_moves(self, listener: Callable[[MovementReport], None]) -> None:
        """Register a callback receiving per-node movement reports."""
        self._listeners.append(listener)

    def stop(self) -> None:
        """Stop the movement timer (ends the simulation's busy loop)."""
        self._timer.stop()

    def close(self) -> None:
        """Stop, and unlink the nodes and the movement listeners, which
        refer back here; positions stay readable, and nothing is
        reported any more."""
        self.stop()
        self._listeners.clear()
        for node in self._nodes.values():
            node._world = None

    def _model_changed(self, node: MobileNode) -> None:
        """Keep the movers in ``_nodes`` order across a model swap."""
        if type(node.model) is Stationary:
            self._movers.pop(node.node_id, None)
        elif node.node_id not in self._movers:
            self._movers = {node_id: other
                            for node_id, other in self._nodes.items()
                            if type(other.model) is not Stationary}

    def _advance(self) -> None:
        dt = self.env.now - self._last_tick_time
        self._last_tick_time = self.env.now
        if dt <= 0.0:
            return
        grid = self._grid
        clamp = self.bounds.clamp
        moved: list[str] = []
        for node in self._movers.values():
            position = node.position
            new_position = clamp(node._model.step(position, dt))
            if new_position is not position and (
                    new_position.x != position.x
                    or new_position.y != position.y):
                node.position = new_position
                moved.append(node.node_id)
                grid.move(node.node_id, new_position)
        if moved:
            self._notify(MovementReport(moved=tuple(moved)))

    def _notify(self, report: MovementReport) -> None:
        for listener in self._listeners:
            listener(report)
