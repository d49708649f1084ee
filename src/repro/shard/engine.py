"""One shard of the sharded world: its devices, events and medium.

A :class:`ShardSim` owns a slice of the global simulation:

* a private :class:`~repro.simenv.environment.Environment` whose event
  queue holds only this shard's movement ticks and discovery scans —
  the "slice of the event queue" the sharded design calls for;
* a private :class:`~repro.mobility.world.World` (full global bounds,
  so clamping arithmetic is identical everywhere) populated with the
  shard's *owned* devices plus *ghost* replicas of border devices
  owned by other shards;
* a private :class:`~repro.radio.medium.Medium` whose neighbour
  listings, cached for one topology version, serve this shard's scans.

Ghosts are full replicas: their mobility models advance through the
same tick schedule and the same float arithmetic as the owner's copy,
so their positions are bit-identical (there is no approximation to
drift).  Owned devices run discovery scans and accrue the interaction
log; ghosts are merely visible.

Between windows the coordinator calls :meth:`collect_exchange` /
:meth:`apply_exchange`: devices that walked into another shard's
territory migrate (their full state and their export record move),
and the border ghost set is refreshed.  The exchange is a delta: a
device's owner ships a full snapshot only the first time the device is
exported as a ghost to a destination, and a ``(device_id, x, y)``
*kept* entry while the destination still holds the replica it was
sent, whichever owner sent it.  By the exactness invariant that replica is
bit-identical to the owner's copy, which ``verify_ghosts=True``
asserts against the kept positions.

Ownership geometry is a :class:`~repro.shard.partition.TilePartition`
(vertical strips are its one-row preset): the engine only ever asks
``route(x, y, halo)`` for a device's tile, owner and ghost targets.
When the run rebalances, each exchange also carries per-tile load
counters (owned devices weighted by the discovery events they fired
this window), and the coordinator may hand back a rebalanced
tile→shard map in ``apply_exchange`` — adopted *after* the incoming
traffic is installed, so it governs the next window's ownership
re-evaluation and the reassigned tiles' devices migrate through the
ordinary exchange path one window later.

A window edge costs what moved.  A stationary device's route, exports
and tile hold until a map is adopted, so the edge re-routes only the
devices that arrived since the last one, and each walker only once it
leaves the exact box around it where its route holds
(:meth:`~repro.shard.partition.TilePartition.route_box`).  After an
adoption it re-routes the devices whose halo index box
(:meth:`~repro.shard.partition.TilePartition.index_box`) holds a
reassigned tile, and ``apply_exchange`` installs and uninstalls
through the world's and the medium's batch forms, so a rebalance that
moves hundreds of devices costs one batch per layer.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.mobility.geometry import Rect
from repro.mobility.models import Stationary
from repro.mobility.world import MobileNode, MovementReport, World
from repro.radio.medium import Medium
from repro.radio.technology import Technology
from repro.shard.balance import REBALANCE_THRESHOLD
from repro.shard.devices import DeviceState
from repro.shard.partition import PartitionSpec
from repro.simenv.environment import Environment

#: Technology name the shard radio registers under.
SHARD_TECH = "shardlink"

#: One interaction-log record: (sim time, sorted neighbour ids).
LogEntry = tuple[float, tuple[str, ...]]

#: A ghost the destination already holds: (device id, x, y).
KeptGhost = tuple[str, float, float]


def _box_meets(box: tuple[int, int, int, int],
               cells: list[tuple[int, int]]) -> bool:
    """Whether an index box ``(column_lo, column_hi, row_lo, row_hi)``
    holds one of the ``(column, row)`` cells."""
    column_lo, column_hi, row_lo, row_hi = box
    for column, row in cells:
        if column_lo <= column <= column_hi and row_lo <= row <= row_hi:
            return True
    return False


def shard_technology(radio_range: float) -> Technology:
    """The uniform local radio every shard device carries."""
    return Technology(name=SHARD_TECH, range_m=radio_range,
                      bandwidth_bps=1_000_000.0, latency_s=0.005,
                      setup_time_s=0.0, discovery_time_s=0.0)


@dataclass(frozen=True)
class ShardConfig:
    """Shard-count-independent parameters of one sharded run.

    Every shard receives the same config; only the initial device
    split differs.  ``scan_times`` is the full global scan schedule
    (each owned device scans at ``t + device.scan_phase``), computed
    once by the coordinator so no shard re-derives it with different
    float rounding.
    """

    seed: int
    bounds: Rect
    shards: int
    sim_seconds: float
    tick: float
    window: float
    radio_range: float
    halo: float
    scan_times: tuple[float, ...]
    #: Ownership geometry (the tile grid and its initial map); see
    #: :mod:`repro.shard.partition`.
    partition: PartitionSpec
    collect_logs: bool = True
    verify_ghosts: bool = False
    #: Whether the coordinator may reassign tiles between shards at
    #: window edges; shards then report per-tile loads.
    rebalance: bool = False
    #: ``max/mean`` shard-load ratio that triggers a rebalance.
    rebalance_threshold: float = REBALANCE_THRESHOLD

    def boundaries(self) -> list[float]:
        """Window-edge times: multiples of ``window`` up to the end.

        The final entry is always ``sim_seconds``; exchanges happen at
        every boundary except the last.
        """
        edges: list[float] = []
        k = 1
        while k * self.window < self.sim_seconds:
            edges.append(k * self.window)
            k += 1
        edges.append(self.sim_seconds)
        return edges


@dataclass
class ShardExchange:
    """One shard's outgoing border traffic at a window edge."""

    #: (destination shard, device state, the shards it is exported to
    #: as a ghost at this edge) for devices that changed owner: the new
    #: owner takes over the export record.
    migrations: list[tuple[int, DeviceState, tuple[int, ...]]] = field(
        default_factory=list)
    #: (destination shard, device state) for ghosts this shard did not
    #: export to that destination at the previous window edge.
    snapshots: list[tuple[int, DeviceState]] = field(default_factory=list)
    #: (destination shard, kept ghost) for ghosts the destination
    #: holds from this shard's previous export.
    kept: list[tuple[int, KeptGhost]] = field(default_factory=list)
    #: tile index -> load (owned devices weighted by the scan events
    #: they fired this window); empty unless the run rebalances.
    tile_loads: dict[int, int] = field(default_factory=dict)
    #: Device events this shard fired during the window just ended.
    window_events: int = 0


class GhostDivergenceError(AssertionError):
    """A ghost replica's position diverged from the owner's copy.

    Raised only under ``verify_ghosts=True`` (tests); in production the
    exactness invariant makes this unreachable.
    """


class ShardSim:
    """One region shard's private simulation slice."""

    def __init__(self, config: ShardConfig, shard_id: int,
                 owned: list[DeviceState],
                 ghosts: list[DeviceState],
                 exported: dict[str, tuple[int, ...]]) -> None:
        self.config = config
        self.shard_id = shard_id
        self.partition = config.partition.build(config.bounds, config.shards)
        self.env = Environment(seed=config.seed)
        self.world = World(self.env, bounds=config.bounds, tick=config.tick,
                           cell_size=config.radio_range)
        self.medium = Medium(self.world)
        self.technology = shard_technology(config.radio_range)
        self.owned: dict[str, DeviceState] = {}
        self.ghosts: dict[str, DeviceState] = {}
        #: The owned devices whose model moves them, in owned order,
        #: with their world nodes.
        self._walkers: dict[str, MobileNode] = {}
        #: Owned devices installed since the last edge, in owned order:
        #: the next edge routes them afresh.
        self._arrivals: dict[str, None] = {}
        #: Tiles whose owner changed since the last edge.
        self._remapped: set[int] = set()
        #: scan phase -> its owned devices, in owned order, each with
        #: its install rank (owned order across phases).
        self._scanners: dict[float, dict[str, int]] = {}
        self._installs = 0
        #: device id -> this shard's segment of its interaction log.
        self.logs: dict[str, list[LogEntry]] = {}
        #: Device-attributable events fired here: one per owned-walker
        #: movement step, one per scan, one per neighbour sighted.
        #: Infrastructure events (shard tick timers, window plumbing)
        #: are excluded so totals are shard-count-invariant.
        self.device_events = 0
        self.migrations_out = 0
        self._emigrant_ids: list[str] = []
        # Per-tile load accounting, kept only when the run rebalances.
        # A stationary device's tile never changes, so its load is
        # booked to its tile as it happens; a walker's goes to the
        # tile it stands in at the edge.
        tiles = len(self.partition.tile_map)
        #: stationary owned device -> the tile it stands in.
        self._tile_of: dict[str, int] = {}
        #: Per tile: the stationary owned devices standing in it.
        self._still_per_tile = [0] * tiles
        #: Per tile: the scan events its stationary owned devices fired
        #: since the last exchange.
        self._still_scans = [0] * tiles
        #: halo index box (:meth:`TilePartition.index_box`) -> the
        #: stationary owned devices with that box.
        self._still_boxes: dict[tuple[int, int, int, int],
                                dict[str, None]] = {}
        #: walker -> scan events fired since the last exchange.
        self._scan_events: dict[str, int] = {}
        #: ``device_events`` reading at the last exchange — the delta
        #: is the per-window event count the imbalance factor tracks.
        self._events_at_collect = 0
        #: device id -> the shards this shard shipped it to as a ghost
        #: at the last window edge (the initial split before the
        #: first); each of them still holds an exact replica.
        self._exported = exported
        #: The kept entries of every exported stationary device, for
        #: the next edge; ``None`` once one of them changed.
        self._still_kept: list[tuple[int, KeptGhost]] | None = None
        #: walker -> (lo_x, hi_x, lo_y, hi_y, tile, owner, ghost
        #: targets other than the owner): the box in which its route
        #: holds (map-independent), and that route under the current
        #: map.  A stationary device keeps no memo.
        self._routes: dict[str, tuple[float, float, float, float,
                                      int, int, tuple[int, ...]]] = {}
        self.world.on_moves(self._count_owned_moves)
        self._install(owned, self.owned)
        self._install(ghosts, self.ghosts)
        # The initial split routed every owned device where its state
        # stands, inside the bounds, and recorded its ghost targets in
        # ``exported``; a stationary device keeps that route, so the
        # first edge routes only the walkers.
        self._arrivals = {device_id: None for device_id in self.owned
                          if device_id in self._walkers}

    # -- population --------------------------------------------------------

    def _install(self, states: list[DeviceState],
                 bucket: dict[str, DeviceState]) -> None:
        """Put ``states`` into the world, the medium and ``bucket``, in
        order, each layer in one batch."""
        nodes = self.world.add_nodes(
            [(state.device_id, state.position(), state.model)
             for state in states])
        self.medium.attach_all([state.device_id for state in states],
                               self.technology)
        if bucket is not self.owned:
            for state in states:
                bucket[state.device_id] = state
            return
        partition = self.partition
        halo = self.config.halo
        rebalance = self.config.rebalance
        for state, node in zip(states, nodes, strict=True):
            device_id = state.device_id
            bucket[device_id] = state
            self._arrivals[device_id] = None
            self._scanners.setdefault(state.scan_phase, {})[device_id] = \
                self._installs
            self._installs += 1
            if type(node.model) is not Stationary:
                self._walkers[device_id] = node
                continue
            position = node.position
            x = position.x
            y = position.y
            self._still_boxes.setdefault(
                partition.index_box(x, y, halo), {})[device_id] = None
            if rebalance:
                tile = self._tile_of[device_id] = partition.tile_index(x, y)
                self._still_per_tile[tile] += 1

    def _uninstall(self, device_ids: list[str]) -> None:
        """Take devices out of the world and the medium, each layer in
        one batch."""
        self.medium.detach_all(device_ids, SHARD_TECH)
        self.world.remove_nodes(device_ids)
        routes = self._routes
        for device_id in device_ids:
            routes.pop(device_id, None)

    def _disown(self, device_id: str) -> None:
        """Drop an emigrant from the owned-device records (before it
        leaves the world)."""
        state = self.owned.pop(device_id)
        scanners = self._scanners[state.scan_phase]
        del scanners[device_id]
        if not scanners:
            del self._scanners[state.scan_phase]
        if self._walkers.pop(device_id, None) is not None:
            self._exported.pop(device_id, None)
            return
        if self._exported.pop(device_id, None) is not None:
            self._still_kept = None
        position = self.world.node(device_id).position
        box = self.partition.index_box(position.x, position.y,
                                       self.config.halo)
        members = self._still_boxes[box]
        del members[device_id]
        if not members:
            del self._still_boxes[box]
        tile = self._tile_of.pop(device_id, -1)
        if tile >= 0:
            self._still_per_tile[tile] -= 1

    def _count_owned_moves(self, report: MovementReport) -> None:
        owned = self.owned
        moved = report.moved
        if moved:
            self.device_events += sum(1 for nid in moved if nid in owned)

    # -- running -----------------------------------------------------------

    def run_window(self, until: float) -> None:
        """Advance this shard's slice to ``until`` (a window edge).

        Pushes one event per distinct scan instant ``base + phase`` in
        ``(start, until]``, which scans that instant's devices in
        owned-dict order, once per slot.  That is exactly how one event
        per device and slot would fire: pushed back to back here,
        device by device, nothing could run between them, and a scan
        schedules and moves nothing.  ``base + phase`` never decreases
        along the ascending schedule, so per distinct phase a bisection
        finds the first slot past ``start`` (corrected against the
        exact sum) and the walk stops at the first slot past ``until``.
        The devices of each phase come from an index kept in owned
        order as devices arrive and leave; where phases meet at one
        float instant, their install ranks merge them back into owned
        order.
        """
        start = self.env.now
        scan_times = self.config.scan_times
        slots = len(scan_times)
        # instant -> the phases' device lists scanning at it, one per
        # slot of a phase
        scanning: dict[float, list[dict[str, int]]] = {}
        for phase, members in self._scanners.items():
            index = bisect_right(scan_times, start - phase)
            while index and scan_times[index - 1] + phase > start:
                index -= 1
            while index < slots:
                when = scan_times[index] + phase
                if when > until:
                    break
                if when > start:
                    lists = scanning.get(when)
                    if lists is None:
                        scanning[when] = [members]
                    else:
                        lists.append(members)
                index += 1
        call_at = self.env.call_at
        for when in sorted(scanning):
            lists = scanning[when]
            if len(lists) == 1:
                device_ids = list(lists[0])
            else:
                ranked = sorted((rank, device_id) for members in lists
                                for device_id, rank in members.items())
                device_ids = [device_id for _, device_id in ranked]
            call_at(when, self._scan_instant, device_ids)
        self.env.run(until=until)

    def _scan_instant(self, device_ids: list[str]) -> None:
        """Scan ``device_ids``, in order, at the current instant."""
        neighbors = self.medium.neighbors
        rebalance = self.config.rebalance
        tile_of = self._tile_of
        still_scans = self._still_scans
        scan_events = self._scan_events
        logs = self.logs if self.config.collect_logs else None
        now = self.env.now
        fired_total = 0
        for device_id in device_ids:
            listing = neighbors(device_id, SHARD_TECH)
            fired = 1 + len(listing)
            fired_total += fired
            if rebalance:
                tile = tile_of.get(device_id, -1)
                if tile < 0:
                    scan_events[device_id] = (scan_events.get(device_id, 0)
                                              + fired)
                else:
                    still_scans[tile] += fired
            if logs is not None:
                log = logs.get(device_id)
                if log is None:
                    log = logs[device_id] = []
                log.append((now, tuple(listing)))
        self.device_events += fired_total

    def stop(self) -> None:
        """Stop the world tick timer (ends this shard's busy loop)."""
        self.world.stop()

    # -- window-edge exchange ----------------------------------------------

    def collect_exchange(self) -> ShardExchange:
        """Re-evaluate ownership and package border traffic.

        Ownership is re-evaluated from each device's exact position
        (the same pure float function on every shard), through one
        ``route`` call; a routed device's state takes that position.
        The old owner announces both the migration and the ghost
        exports for a departing device, so a window edge costs exactly
        one gather/scatter round through the coordinator.  A ghost
        export to a shard this one exported the device to at the
        previous edge is a kept entry; any other is a full snapshot.
        When the run rebalances, the exchange also carries per-tile
        loads — each owned device contributes ``1 + scan events this
        window`` to the tile it stands in — which feed the
        coordinator's rebalancer.

        The edge walks what can have changed: each walker (a box test
        while it stays where its route holds) and each arrival, in
        owned order, so emigrants leave in that order.  After a map
        adoption it also routes each device whose halo index box
        (:meth:`~repro.shard.partition.TilePartition.index_box`) holds
        a tile that changed owner: ``route`` reads the map nowhere
        else.  A stationary device that did none of this keeps its
        route, so it still owns itself and its ghosts stay kept
        entries of the maintained export record.
        """
        exchange = ShardExchange()
        kept = exchange.kept
        tile_loads = exchange.tile_loads
        rebalance = self.config.rebalance
        halo = self.config.halo
        scan_events = self._scan_events
        routes = self._routes
        walkers = self._walkers
        owned = self.owned
        arrivals = self._arrivals
        tiles_x = self.partition.tiles_x
        # (column, row) of each tile that changed owner
        remapped = [(tile % tiles_x, tile // tiles_x)
                    for tile in self._remapped]
        index_box = self.partition.index_box
        emigrants: list[str] = []
        for device_id, node in walkers.items():
            if device_id in arrivals:
                continue
            position = node.position
            x = position.x
            y = position.y
            memo = routes[device_id]
            if (memo[0] <= x <= memo[1] and memo[2] <= y <= memo[3]
                    and not (remapped and _box_meets(index_box(x, y, halo),
                                                     remapped))):
                tile = memo[4]
                if memo[6]:
                    entry = (device_id, x, y)
                    for target in memo[6]:
                        kept.append((target, entry))
            else:
                tile = self._reroute(device_id, owned[device_id], True,
                                     exchange, emigrants)
            if rebalance:
                tile_loads[tile] = (tile_loads.get(tile, 0) + 1
                                    + scan_events.get(device_id, 0))
        # Stationary devices whose route the new map may change.
        rerouted: dict[str, None] = {}
        if remapped:
            for box, members in self._still_boxes.items():
                if _box_meets(box, remapped):
                    rerouted.update((device_id, None) for device_id in members
                                    if device_id not in arrivals)
        for device_id in rerouted:
            self._reroute(device_id, owned[device_id], False, exchange,
                          emigrants)
        still_kept = None if rerouted else self._still_kept
        for device_id in arrivals:
            walker = device_id in walkers
            tile = self._reroute(device_id, owned[device_id], walker,
                                 exchange, emigrants)
            if not walker:
                still_kept = None
            elif rebalance:
                tile_loads[tile] = (tile_loads.get(tile, 0) + 1
                                    + scan_events.get(device_id, 0))
        if rerouted and emigrants:
            # The stationary pass broke owned order.
            leaving = set(emigrants)
            emigrants = [device_id for device_id in owned
                         if device_id in leaving]
        if still_kept is None:
            # Rebuild the stationary exports' kept entries; the routed
            # ones shipped theirs from ``_reroute`` at this edge.
            still_kept = []
            for device_id, targets in self._exported.items():
                if device_id in walkers:
                    continue
                state = owned[device_id]
                entry = (device_id, state.x, state.y)
                entries = [(target, entry) for target in targets]
                if device_id not in arrivals and device_id not in rerouted:
                    kept.extend(entries)
                still_kept.extend(entries)
            self._still_kept = still_kept
        else:
            kept.extend(still_kept)
        if rebalance:
            still_scans = self._still_scans
            for tile, count in enumerate(self._still_per_tile):
                if count:
                    tile_loads[tile] = (tile_loads.get(tile, 0) + count
                                        + still_scans[tile])
            self._still_scans = [0] * len(still_scans)
        self._arrivals = {}
        self._remapped = set()
        self._emigrant_ids = emigrants
        self.migrations_out += len(emigrants)
        exchange.window_events = self.device_events - self._events_at_collect
        self._events_at_collect = self.device_events
        self._scan_events = {}
        return exchange

    def _reroute(self, device_id: str, state: DeviceState, walker: bool,
                 exchange: ShardExchange, emigrants: list[str]) -> int:
        """Route one owned device afresh into ``exchange`` and return
        its tile.

        A walker that stays keeps a box memo: the old box when the
        device is still inside it (only the map changed), else a new
        one.
        """
        position = self.world.node(device_id).position
        x = state.x = position.x
        y = state.y = position.y
        halo = self.config.halo
        partition = self.partition
        tile, owner, targets = partition.route(x, y, halo)
        if targets == (owner,):
            targets = ()
        else:
            targets = tuple(target for target in targets if target != owner)
        if owner != self.shard_id:
            exchange.migrations.append((owner, state, targets))
            emigrants.append(device_id)
        elif walker:
            memo = self._routes.get(device_id)
            if (memo is not None and memo[0] <= x <= memo[1]
                    and memo[2] <= y <= memo[3]):
                box = memo[:4]
            else:
                box = partition.route_box(x, y, halo)
            self._routes[device_id] = (*box, tile, owner, targets)
        exported = self._exported
        held = exported.get(device_id, ())
        if targets:
            kept = exchange.kept
            snapshots = exchange.snapshots
            for target in targets:
                if target in held:
                    kept.append((target, (device_id, x, y)))
                else:
                    snapshots.append((target, state))
            exported[device_id] = targets
        elif held:
            del exported[device_id]
        return tile

    def final_window_events(self) -> int:
        """Device events fired since the last exchange (for the last
        window, which has no ``collect_exchange`` call)."""
        return self.device_events - self._events_at_collect

    def adopt_tile_map(self, tile_map: tuple[int, ...]) -> None:
        """Install a rebalanced tile→shard map.

        Takes effect at the *next* ownership re-evaluation
        (``collect_exchange``), where devices standing in reassigned
        tiles migrate through the ordinary exchange path.  Every shard
        adopts the same map at the same window edge, so ownership
        stays a shard-invariant pure function.  The next edge routes
        the owned devices whose halo index box holds a reassigned
        tile under the new map; the walkers' boxes, which no map
        moves, stay.
        """
        old = self.partition.tile_map
        self.partition = self.partition.with_map(tile_map)
        self._remapped.update(
            tile for tile, (was, now)
            in enumerate(zip(old, self.partition.tile_map, strict=True))
            if was != now)

    def apply_exchange(self,
                       immigrants: list[tuple[DeviceState, tuple[int, ...]]],
                       snapshots: list[DeviceState],
                       kept: list[KeptGhost],
                       tile_map: tuple[int, ...] | None = None) -> None:
        """Install the coordinator's routed border traffic.

        Each immigrant comes with the shards its old owner exported it
        to at this edge, which hold its replica from now on: this
        shard's next edge sends them kept entries, not snapshots.
        This window's ghosts are the snapshots plus the kept entries;
        any other ghost is dropped.  Removals run before additions so
        a device converting between owned and ghost (either direction)
        passes through a clean remove/insert; each is one batch per
        layer (``World.remove_nodes``/``add_nodes``,
        ``Medium.detach_all``/``attach_all``), so the world notifies
        and the medium starts a new topology version once per batch,
        not once per device.  A kept entry's ghost keeps its live
        local replica untouched: it is bit-identical by the exactness
        invariant, which ``verify_ghosts`` checks against the
        exporter's position.  A snapshot's ghost is never held already,
        since an export record moves with its device.  A
        non-``None`` ``tile_map`` is adopted *after* the install: the
        incoming traffic was routed under the old map, and the new one
        governs the next window.
        """
        fresh_ghost_ids = {state.device_id for state in snapshots}
        fresh_ghost_ids.update([device_id for device_id, _, _ in kept])
        ghosts = self.ghosts
        emigrants = self._emigrant_ids
        for device_id in emigrants:
            self._disown(device_id)
        dropped = [ghost_id for ghost_id in ghosts
                   if ghost_id not in fresh_ghost_ids]
        self._uninstall(emigrants + dropped)
        for device_id in dropped:
            del ghosts[device_id]
        self._emigrant_ids = []
        self._install([state for state, _ in immigrants], self.owned)
        exported = self._exported
        for state, targets in immigrants:
            if targets:
                exported[state.device_id] = targets
        if self.config.verify_ghosts:
            for device_id, x, y in kept:
                self._verify_replica(device_id, x, y)
        self._install(snapshots, ghosts)
        if tile_map is not None:
            self.adopt_tile_map(tile_map)

    def _verify_replica(self, device_id: str, x: float, y: float) -> None:
        """Raise unless this shard holds ``device_id`` as a ghost at
        exactly the exporter's ``(x, y)``."""
        if device_id not in self.ghosts:
            raise GhostDivergenceError(
                f"ghost {device_id!r} kept for shard {self.shard_id}, "
                f"which holds no replica of it")
        local = self.world.node(device_id).position
        if (local.x, local.y) != (x, y):
            raise GhostDivergenceError(
                f"ghost {device_id!r} in shard {self.shard_id} at "
                f"({local.x!r}, {local.y!r}) but owner reports "
                f"({x!r}, {y!r})")

    def __repr__(self) -> str:
        return (f"ShardSim(shard={self.shard_id}/{self.config.shards}, "
                f"t={self.env.now:g}, owned={len(self.owned)}, "
                f"ghosts={len(self.ghosts)})")
