"""One shard of the sharded world: its devices, events and medium.

A :class:`ShardSim` owns a slice of the global simulation:

* a private :class:`~repro.simenv.environment.Environment` whose event
  queue holds only this shard's movement ticks and discovery scans —
  the "slice of the event queue" the sharded design calls for;
* a private :class:`~repro.mobility.world.World` (full global bounds,
  so clamping arithmetic is identical everywhere) populated with the
  shard's *owned* devices plus *ghost* replicas of border devices
  owned by other shards;
* a private :class:`~repro.radio.medium.Medium` whose region-stamped
  neighbour cache serves this shard's scans.

Ghosts are full replicas: their mobility models advance through the
same tick schedule and the same float arithmetic as the owner's copy,
so their positions are bit-identical (there is no approximation to
drift).  Owned devices run discovery scans and accrue the interaction
log; ghosts are merely visible.

Between windows the coordinator calls :meth:`collect_exchange` /
:meth:`apply_exchange`: devices that walked into another shard's
territory migrate (their full state moves), and the border ghost set
is refreshed.  The exchange is a delta: an exporter ships a full
snapshot only the first time it exports a ghost to a destination, and
a ``(device_id, x, y)`` *kept* entry while the destination still holds
the replica it was sent.  By the exactness invariant that replica is
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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.mobility.geometry import Rect
from repro.mobility.world import MovementReport, World
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

    #: (destination shard, device state) for devices that changed owner.
    migrations: list[tuple[int, DeviceState]] = field(default_factory=list)
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
        #: device id -> this shard's segment of its interaction log.
        self.logs: dict[str, list[LogEntry]] = {}
        #: Device-attributable events fired here: one per owned-walker
        #: movement step, one per scan, one per neighbour sighted.
        #: Infrastructure events (shard tick timers, window plumbing)
        #: are excluded so totals are shard-count-invariant.
        self.device_events = 0
        self.migrations_out = 0
        self._emigrant_ids: list[str] = []
        #: device id -> scan events fired since the last exchange;
        #: aggregated into per-tile loads at collect time, then reset.
        self._scan_events: dict[str, int] = {}
        #: ``device_events`` reading at the last exchange — the delta
        #: is the per-window event count the imbalance factor tracks.
        self._events_at_collect = 0
        #: device id -> the shards this shard shipped it to as a ghost
        #: at the last window edge (the initial split before the
        #: first); each of them still holds an exact replica.
        self._exported = exported
        #: device id -> (x, y, tile, owner, ghost targets other than
        #: the owner) as routed at exactly that position under the
        #: current map; a device that did not move reuses its route.
        self._routes: dict[
            str, tuple[float, float, int, int, tuple[int, ...]]] = {}
        self.world.on_moves(self._count_owned_moves)
        with self.world.batch():
            for state in owned:
                self._install(state, self.owned)
            for state in ghosts:
                self._install(state, self.ghosts)

    # -- population --------------------------------------------------------

    def _install(self, state: DeviceState,
                 bucket: dict[str, DeviceState]) -> None:
        bucket[state.device_id] = state
        self.world.add_node(state.device_id, state.position(), state.model)
        self.medium.attach(state.device_id, self.technology)

    def _uninstall(self, device_id: str) -> None:
        self.medium.detach(device_id, SHARD_TECH)
        self.world.remove_node(device_id)
        self._routes.pop(device_id, None)

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
        """
        start = self.env.now
        scan_times = self.config.scan_times
        slots = len(scan_times)
        owned = self.owned
        phases = {state.scan_phase for state in owned.values()}
        # phase -> the instants in this window its devices scan at
        instants_of: dict[float, list[float]] = {}
        for phase in phases:
            index = bisect_right(scan_times, start - phase)
            while index and scan_times[index - 1] + phase > start:
                index -= 1
            while index < slots:
                when = scan_times[index] + phase
                if when > until:
                    break
                if when > start:
                    instants_of.setdefault(phase, []).append(when)
                index += 1
        # Walking the owned devices keeps each instant's list in their
        # order, also where different phases meet at one float instant.
        scanning: dict[float, list[str]] = {}
        if instants_of:
            for device_id, state in owned.items():
                for when in instants_of.get(state.scan_phase, ()):
                    scanning.setdefault(when, []).append(device_id)
        call_at = self.env.call_at
        for when in sorted(scanning):
            call_at(when, self._scan_instant, scanning[when])
        self.env.run(until=until)

    def _scan_instant(self, device_ids: list[str]) -> None:
        """Scan ``device_ids``, in order, at the current instant."""
        neighbors = self.medium.neighbors
        scan_events = self._scan_events
        logs = self.logs if self.config.collect_logs else None
        now = self.env.now
        fired_total = 0
        for device_id in device_ids:
            listing = neighbors(device_id, SHARD_TECH)
            fired = 1 + len(listing)
            fired_total += fired
            scan_events[device_id] = scan_events.get(device_id, 0) + fired
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
        """Refresh owned state from the world and package border traffic.

        Ownership is re-evaluated from each device's exact position
        (the same pure float function on every shard), through one
        ``route`` call that a device which did not move skips.  The
        old owner announces both the migration and the ghost exports
        for a departing device, so a window edge costs exactly one
        gather/scatter round through the coordinator.  A ghost export
        to a shard this one exported the device to at the previous
        edge is a kept entry; any other is a full snapshot.  When the
        run rebalances, the exchange also carries per-tile loads — each
        owned device contributes ``1 + scan events this window`` to
        the tile it stands in — which feed the coordinator's
        rebalancer.
        """
        exchange = ShardExchange()
        migrations = exchange.migrations
        snapshots = exchange.snapshots
        kept = exchange.kept
        tile_loads = exchange.tile_loads
        halo = self.config.halo
        route = self.partition.route
        routes = self._routes
        previous = self._exported
        exported: dict[str, tuple[int, ...]] = {}
        rebalance = self.config.rebalance
        shard_id = self.shard_id
        scan_events = self._scan_events
        node = self.world.node
        emigrants: list[str] = []
        for device_id, state in self.owned.items():
            position = node(device_id).position
            x = state.x = position.x
            y = state.y = position.y
            memo = routes.get(device_id)
            if memo is None or memo[0] != x or memo[1] != y:
                tile, owner, targets = route(x, y, halo)
                if targets == (owner,):
                    targets = ()
                else:
                    targets = tuple(target for target in targets
                                    if target != owner)
                memo = routes[device_id] = (x, y, tile, owner, targets)
            _, _, tile, owner, targets = memo
            if owner != shard_id:
                migrations.append((owner, state))
                emigrants.append(device_id)
            if targets:
                held = previous.get(device_id, ())
                for target in targets:
                    if target in held:
                        kept.append((target, (device_id, x, y)))
                    else:
                        snapshots.append((target, state))
                exported[device_id] = targets
            if rebalance:
                tile_loads[tile] = (tile_loads.get(tile, 0) + 1
                                    + scan_events.get(device_id, 0))
        self._exported = exported
        self._emigrant_ids = emigrants
        self.migrations_out += len(emigrants)
        exchange.window_events = self.device_events - self._events_at_collect
        self._events_at_collect = self.device_events
        self._scan_events = {}
        return exchange

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
        stays a shard-invariant pure function.  Routes memoised under
        the old map are dropped.
        """
        self.partition = self.partition.with_map(tile_map)
        self._routes.clear()

    def apply_exchange(self, immigrants: list[DeviceState],
                       snapshots: list[DeviceState],
                       kept: list[KeptGhost],
                       tile_map: tuple[int, ...] | None = None) -> None:
        """Install the coordinator's routed border traffic.

        This window's ghosts are the snapshots plus the kept entries;
        any other ghost is dropped.  Removals run before additions so
        a device converting between owned and ghost (either direction)
        passes through a clean remove/insert.  A ghost already held —
        every kept entry, and a snapshot from an exporter that took
        over the device — keeps its live local replica untouched: it
        is bit-identical by the exactness invariant, which
        ``verify_ghosts`` checks against the exporter's position.  A
        non-``None`` ``tile_map`` is adopted *after* the install: the
        incoming traffic was routed under the old map, and the new one
        governs the next window.
        """
        fresh_ghost_ids = {state.device_id for state in snapshots}
        fresh_ghost_ids.update([device_id for device_id, _, _ in kept])
        verify = self.config.verify_ghosts
        with self.world.batch():
            for device_id in self._emigrant_ids:
                self._uninstall(device_id)
                del self.owned[device_id]
            self._emigrant_ids = []
            for device_id in [ghost_id for ghost_id in self.ghosts
                              if ghost_id not in fresh_ghost_ids]:
                self._uninstall(device_id)
                del self.ghosts[device_id]
            for state in immigrants:
                self._install(state, self.owned)
            for state in snapshots:
                if state.device_id not in self.ghosts:
                    self._install(state, self.ghosts)
                elif verify:
                    self._verify_replica(state.device_id, state.x, state.y)
            if verify:
                for device_id, x, y in kept:
                    self._verify_replica(device_id, x, y)
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
