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
territory migrate (their full state, their export record and their
route move), and the border ghost set is refreshed.  The exchange is a
delta: a device's owner ships a full snapshot only to a shard that
does not hold the device, and a ``(device_id, x, y)`` *kept* entry to
one that does, whichever owner sent it the replica; an emigrant's old
owner, which keeps its node as a ghost while the device stays in its
halo, is sent a kept entry too.  By the exactness invariant a held
replica is bit-identical to the owner's copy, which
``verify_ghosts=True`` asserts against the kept positions.  So a
device enters or leaves a shard's world only when it enters or leaves
that shard's halo: a migration hands the node's role over in place on
both sides.

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

A window edge costs what moved.  Every owned device is installed with
its route: the initial split and a migration hand over the ghost
targets and, for a walker, the exact box around it where its route
holds (:meth:`~repro.shard.partition.TilePartition.route_with_box`).
A stationary device's route, exports and tile hold until a map is
adopted, and a walker is re-routed only once it leaves its box.
After an adoption the edge re-routes the devices whose halo index box
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

#: A walker's route memo: ``(lo_x, hi_x, lo_y, hi_y, tile)``, the box
#: in which its route holds under any map and the tile it stands in.
WalkerRoute = tuple[float, float, float, float, int]

#: An owned device as its owner installs it: its state, the shards that
#: hold its replica (its ghost targets), and its route memo if it is a
#: walker (``None`` for a stationary device).
OwnedDevice = tuple[DeviceState, tuple[int, ...], WalkerRoute | None]


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
    #: as a ghost at this edge, its route memo) for devices that changed
    #: owner: the new owner takes over the export record and the route.
    migrations: list[tuple[int, DeviceState, tuple[int, ...],
                           WalkerRoute | None]] = field(default_factory=list)
    #: (destination shard, device state) for ghosts the destination
    #: does not hold.
    snapshots: list[tuple[int, DeviceState]] = field(default_factory=list)
    #: (destination shard, kept ghost) for ghosts the destination
    #: holds: from this shard's previous export, or, for an emigrant's
    #: entry to this shard, as the node it owned until this edge.
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
                 owned: list[OwnedDevice],
                 ghosts: list[DeviceState]) -> None:
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
        #: device id -> the shards that hold an exact replica of an
        #: owned device: the ghost targets it was exported to at the
        #: last window edge, or by the initial split before the first.
        self._exported: dict[str, tuple[int, ...]] = {}
        #: The kept entries of every exported stationary device, for
        #: the next edge; ``None`` once one of them changed.
        self._still_kept: list[tuple[int, KeptGhost]] | None = None
        #: walker -> its route memo (:data:`WalkerRoute`).  Its ghost
        #: targets are its ``_exported`` entry.  A stationary device
        #: keeps no memo.
        self._routes: dict[str, WalkerRoute] = {}
        self.world.on_moves(self._count_owned_moves)
        self._install([state for state, _, _ in owned])
        self._own(owned)
        self._install(ghosts)
        for state in ghosts:
            self.ghosts[state.device_id] = state

    # -- population --------------------------------------------------------

    def _install(self, states: list[DeviceState]) -> None:
        """Put ``states`` into the world and the medium, in order, each
        layer in one batch."""
        self.world.add_nodes([(state.device_id, state.position(),
                               state.model) for state in states])
        self.medium.attach_all([state.device_id for state in states],
                               self.technology)

    def _own(self, devices: list[OwnedDevice]) -> None:
        """Enter devices whose nodes are in the world into the
        owned-device records, in order, each with the ghost targets and
        route it arrives with: nothing is routed here."""
        node_of = self.world.node
        partition = self.partition
        halo = self.config.halo
        rebalance = self.config.rebalance
        owned = self.owned
        exported = self._exported
        for state, targets, route in devices:
            device_id = state.device_id
            owned[device_id] = state
            self._scanners.setdefault(state.scan_phase, {})[device_id] = \
                self._installs
            self._installs += 1
            if targets:
                exported[device_id] = targets
            node = node_of(device_id)
            if type(node.model) is not Stationary:
                self._walkers[device_id] = node
                self._routes[device_id] = route
                continue
            if targets:
                self._still_kept = None
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

    def _disown(self, device_id: str) -> DeviceState:
        """Drop an emigrant from the owned-device records and return
        its state; its node stays in the world."""
        state = self.owned.pop(device_id)
        scanners = self._scanners[state.scan_phase]
        del scanners[device_id]
        if not scanners:
            del self._scanners[state.scan_phase]
        exported = self._exported.pop(device_id, None)
        if self._walkers.pop(device_id, None) is not None:
            del self._routes[device_id]
            return state
        if exported is not None:
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
        return state

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
        export to a shard that holds the device is a kept entry: to a
        shard this one exported it to at the previous edge, or, for an
        emigrant, to this shard, which keeps its node as a ghost.  Any
        other export is a full snapshot.  When the run rebalances, the
        exchange also carries per-tile loads — each owned device
        contributes ``1 + scan events this window`` to the tile it
        stands in — which feed the coordinator's rebalancer.

        The edge walks what can have changed: each walker, in owned
        order, so emigrants leave in that order, with a box test while
        it stays where its route holds.  After a map adoption it also
        routes each device whose halo index box
        (:meth:`~repro.shard.partition.TilePartition.index_box`) holds
        a tile that changed owner: ``route`` reads the map nowhere
        else.  Every device arrived with its route, so a stationary
        device that did none of this keeps it: it still owns itself,
        and its ghosts stay kept entries of the maintained export
        record.
        """
        exchange = ShardExchange()
        kept = exchange.kept
        tile_loads = exchange.tile_loads
        rebalance = self.config.rebalance
        halo = self.config.halo
        scan_events = self._scan_events
        routes = self._routes
        exported = self._exported
        walkers = self._walkers
        owned = self.owned
        tiles_x = self.partition.tiles_x
        # (column, row) of each tile that changed owner
        remapped = [(tile % tiles_x, tile // tiles_x)
                    for tile in self._remapped]
        index_box = self.partition.index_box
        emigrants: list[str] = []
        for device_id, node in walkers.items():
            position = node.position
            x = position.x
            y = position.y
            memo = routes[device_id]
            if (memo[0] <= x <= memo[1] and memo[2] <= y <= memo[3]
                    and not (remapped and _box_meets(index_box(x, y, halo),
                                                     remapped))):
                tile = memo[4]
                targets = exported.get(device_id)
                if targets:
                    entry = (device_id, x, y)
                    for target in targets:
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
                    rerouted.update(dict.fromkeys(members))
        for device_id in rerouted:
            self._reroute(device_id, owned[device_id], False, exchange,
                          emigrants)
        if rerouted and emigrants:
            # The stationary pass broke owned order.
            leaving = set(emigrants)
            emigrants = [device_id for device_id in owned
                         if device_id in leaving]
        still_kept = self._still_kept
        if rerouted or still_kept is None:
            # Rebuild the stationary exports' kept entries; the routed
            # ones shipped theirs from ``_reroute`` at this edge.
            still_kept = []
            for device_id, targets in exported.items():
                if device_id in walkers:
                    continue
                state = owned[device_id]
                entry = (device_id, state.x, state.y)
                entries = [(target, entry) for target in targets]
                if device_id not in rerouted:
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

        A walker keeps its route memo while it is still inside the box
        (only the map changed), else takes a new one; an emigrant's
        memo travels with its migration.  An emigrant's ghost export to
        this shard is a kept entry: the node stays here as its ghost.
        """
        position = self.world.node(device_id).position
        x = state.x = position.x
        y = state.y = position.y
        halo = self.config.halo
        partition = self.partition
        route = None
        if not walker:
            tile, owner, targets = partition.route(x, y, halo)
        else:
            route = self._routes[device_id]
            if route[0] <= x <= route[1] and route[2] <= y <= route[3]:
                tile, owner, targets = partition.route(x, y, halo)
            else:
                tile, owner, targets, box = partition.route_with_box(
                    x, y, halo)
                route = (*box, tile)
        if targets == (owner,):
            targets = ()
        else:
            targets = tuple(target for target in targets if target != owner)
        shard_id = self.shard_id
        if owner != shard_id:
            exchange.migrations.append((owner, state, targets, route))
            emigrants.append(device_id)
        elif walker:
            self._routes[device_id] = route
        exported = self._exported
        held = exported.get(device_id, ())
        if targets:
            kept = exchange.kept
            snapshots = exchange.snapshots
            entry = (device_id, x, y)
            for target in targets:
                if target in held or target == shard_id:
                    kept.append((target, entry))
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

    def apply_exchange(self, immigrants: list[OwnedDevice],
                       snapshots: list[DeviceState],
                       kept: list[KeptGhost],
                       tile_map: tuple[int, ...] | None = None) -> None:
        """Install the coordinator's routed border traffic.

        Each immigrant comes with the shards its old owner exported it
        to at this edge, which hold its replica from now on, and with
        its route there: this shard's next edge sends those shards
        kept entries, and routes the immigrant again only as it would
        any owned device.  This window's ghosts are the snapshots plus
        the kept entries; any other ghost is dropped.

        A device enters or leaves this world only when it enters or
        leaves this shard's halo.  An emigrant with a kept entry here
        stays as a ghost, and an immigrant held here as a ghost is
        taken over in place: either way its node, its live model and
        its medium attachment stay untouched.  The rest move in one
        batch per layer, removals first (``World.remove_nodes``/
        ``add_nodes``, ``Medium.detach_all``/``attach_all``), so the
        world notifies and the medium starts a new topology version
        once per batch, not once per device.  A held replica is
        bit-identical to the owner's copy by the exactness invariant,
        which ``verify_ghosts`` checks against the position the
        exporter or the old owner reports.  A snapshot's device is
        never in this world already, since an export record moves with
        its device.  A non-``None`` ``tile_map`` is adopted *after*
        the install: the incoming traffic was routed under the old
        map, and the new one governs the next window.
        """
        verify = self.config.verify_ghosts
        held = {device_id for device_id, _, _ in kept}
        ghosts = self.ghosts
        leaving = []
        for device_id in self._emigrant_ids:
            state = self._disown(device_id)
            if device_id in held:
                ghosts[device_id] = state
            else:
                leaving.append(device_id)
        self._emigrant_ids = []
        arriving: list[OwnedDevice] = []
        fresh: list[DeviceState] = []
        for state, targets, route in immigrants:
            device_id = state.device_id
            if device_id in ghosts:
                if verify:
                    self._verify_replica(device_id, state.x, state.y)
                state = ghosts.pop(device_id)
            else:
                fresh.append(state)
            arriving.append((state, targets, route))
        dropped = [ghost_id for ghost_id in ghosts if ghost_id not in held]
        self._uninstall(leaving + dropped)
        for device_id in dropped:
            del ghosts[device_id]
        self._install(fresh)
        self._own(arriving)
        if verify:
            for device_id, x, y in kept:
                self._verify_replica(device_id, x, y)
        self._install(snapshots)
        for state in snapshots:
            ghosts[state.device_id] = state
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
