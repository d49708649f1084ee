"""The shared radio medium.

The medium answers reachability questions: *can device A talk to
device B over technology T right now?*  For local radios (Bluetooth,
WLAN ad-hoc) the answer follows from the mobility world's distances and
each technology's range.  Wide-area technologies (GPRS) are reachable
whenever both ends have coverage and a gateway is registered.

Devices attach per-technology *adapters* (a device without a Bluetooth
adapter is invisible on Bluetooth even when physically near), which
lets scenarios reproduce the paper's testbed where only some machines
carried dongles (Table 5).

A local radio has one in-range test: ``dx*dx + dy*dy <= range*range``
on the two world positions.  ``reachable``, the grid-backed
``World.nodes_within`` that scalar listings come from and the numpy
sweep all apply it, so a device ``neighbors`` lists is one ``reachable``
accepts.

Caches hold for one *topology version*.  Anything that can change who
reaches whom (a world movement report, an adapter attached, detached or
powered, a gateway registered) starts a new version, which clears the
memoized ``reachable`` verdicts and scalar neighbour listings however
many nodes moved.  Between changes a hit is a single dict lookup; a
room where nothing changes keeps its caches.

At crowd scale a local technology's listings come instead from one
numpy sweep of its whole roster (:mod:`repro.radio.sweep`), kept as one
record per technology and valid while the topology version holds.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.mobility.world import MovementReport, World
from repro.radio import sweep as _sweep
from repro.radio.technology import Technology

if TYPE_CHECKING:  # pragma: no cover - layering guard (net builds on radio)
    from repro.net.faults import FaultInjector

#: Same-technology roster size at which a vectorized whole-population
#: sweep beats per-scan scalar queries.  Below it the numpy dispatch
#: overhead outweighs the batching win.  Read when a medium is built.
VECTOR_SWEEP_MIN_DEVICES = 256


class NotReachableError(ConnectionError):
    """Raised when a transfer is attempted over a dead link."""


class Adapter:
    """A device's interface to one technology."""

    __slots__ = ("device_id", "technology", "bytes_sent", "_enabled",
                 "_medium")

    def __init__(self, device_id: str, technology: Technology,
                 enabled: bool = True) -> None:
        self.device_id = device_id
        self.technology = technology
        #: Cumulative bytes sent by this adapter (for cost accounting).
        self.bytes_sent = 0
        self._enabled = enabled
        self._medium: Medium | None = None  # set by Medium.attach

    @property
    def enabled(self) -> bool:
        """Whether the radio is powered on."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        value = bool(value)
        if value != self._enabled:
            self._enabled = value
            if self._medium is not None:
                self._medium._adapters_changed(self.technology.name)

    @property
    def cost_incurred(self) -> float:
        """Money spent on traffic through this adapter so far."""
        return self.technology.transfer_cost(self.bytes_sent)

    def __repr__(self) -> str:
        state = "on" if self._enabled else "off"
        return (f"Adapter({self.device_id!r}, {self.technology.name}, "
                f"{state}, {self.bytes_sent}B)")


class _Sweep:
    """One technology's whole-roster sweep.

    ``ids`` are the swept devices (attached, powered, on the map) in id
    order, and ``rows`` maps each to its index there; device ``ids[i]``
    lists ``flat[starts[i]:starts[i + 1]]``.  The listings are valid
    while the medium's topology version equals ``version``; ``ids`` and
    ``rows`` while its (roster epoch, population epoch) equals
    ``roster``, so the next sweep reuses them until then.
    """

    __slots__ = ("version", "roster", "ids", "rows", "starts", "flat")

    def __init__(self, version: int, roster: tuple[int, int],
                 ids: list[str], rows: dict[str, int], starts: list[int],
                 flat: list[str]) -> None:
        self.version = version
        self.roster = roster
        self.ids = ids
        self.rows = rows
        self.starts = starts
        self.flat = flat


class Medium:
    """Registry of adapters plus reachability/link-quality queries."""

    def __init__(self, world: World) -> None:
        self.world = world
        #: Direct handle on the world's node table (stable for the
        #: world's lifetime) — membership checks run once per neighbour
        #: query, and ``__contains__`` dispatch is measurable there.
        self._world_nodes = world._nodes
        self._adapters: dict[tuple[str, str], Adapter] = {}
        #: Device ids per technology name — the roster wide-area
        #: listings enumerate (local listings go through the grid).
        #: Insertion-ordered dict-as-set so ``detach`` is O(1); a list
        #: remove is O(roster) and shard-border ghost churn detaches
        #: constantly at 100k-device scale.
        self._by_technology: dict[str, dict[str, None]] = {}
        self._gateways: set[str] = set()
        #: Memoized ``reachable`` verdicts for the current topology
        #: version.
        self._reachable_cache: dict[tuple[str, str, str], bool] = {}
        #: (device, tech) -> scalar-path listing for the current
        #: topology version.
        self._neighbors_cache: dict[tuple[str, str], list[str]] = {}
        #: Per-technology roster change counter (attach/detach/power
        #: toggles); with the population epoch it keys who a sweep
        #: covers.
        self._tech_epoch: dict[str, int] = {}
        #: Monotone counter covering *anything* that can change a
        #: verdict or a listing: movement, population, adapters,
        #: gateways.  Both caches hold for one version, and a sweep
        #: record is stamped with it.
        self._topology_version = 0
        #: Roster size from which a local technology is swept whole;
        #: ``None`` when it never is (numpy does not import).
        self._vector_min: int | None = (
            VECTOR_SWEEP_MIN_DEVICES if _sweep.available() else None)
        #: Bumped when the world gains or loses a node; with the
        #: technology's roster epoch it keys who a sweep covers.
        self._population_epoch = 0
        #: tech -> the latest whole-roster sweep of that technology.
        self._sweeps: dict[str, _Sweep] = {}
        world.on_moves(self._apply_report)
        #: Optional installed :class:`~repro.net.faults.FaultInjector`;
        #: stacks and connections consult it at setup and send time.
        self.faults: FaultInjector | None = None

    # -- invalidation ----------------------------------------------------

    def _topology_changed(self) -> None:
        """Start a new topology version: drop every verdict and listing."""
        self._topology_version += 1
        self._reachable_cache.clear()
        self._neighbors_cache.clear()

    def _apply_report(self, report: MovementReport) -> None:
        """Movement listener: any move or population change is a new
        topology version."""
        if report.added or report.removed:
            self._population_epoch += 1
        self._topology_changed()

    def _adapters_changed(self, technology_name: str) -> None:
        """Adapters of the technology were attached, detached or
        toggled: bump its roster epoch and the topology version."""
        self._tech_epoch[technology_name] = \
            self._tech_epoch.get(technology_name, 0) + 1
        self._topology_changed()

    # -- attachment ------------------------------------------------------

    def attach(self, device_id: str, technology: Technology) -> Adapter:
        """Give ``device_id`` an adapter for ``technology``."""
        return self.attach_all((device_id,), technology)[0]

    def attach_all(self, device_ids: Iterable[str],
                   technology: Technology) -> list[Adapter]:
        """Give each device an adapter for ``technology``, in order,
        with one roster change for them all.

        A device that already has one raises ``ValueError``; the
        adapters given before it stay.
        """
        name = technology.name
        adapters = self._adapters
        roster = self._by_technology.get(name)
        if roster is None:
            roster = self._by_technology[name] = {}
        attached: list[Adapter] = []
        try:
            for device_id in device_ids:
                key = (device_id, name)
                if key in adapters:
                    raise ValueError(
                        f"{device_id!r} already has a {name} adapter")
                adapter = Adapter(device_id, technology)
                adapter._medium = self
                adapters[key] = adapter
                roster[device_id] = None
                attached.append(adapter)
        finally:
            if attached:
                if technology.range_m is not None:
                    # Keep grid cells at least one radio range wide so
                    # a neighbour disc overlaps a bounded number of
                    # cells.
                    self.world.require_cell_size(technology.range_m)
                self._adapters_changed(name)
        return attached

    def detach(self, device_id: str, technology_name: str) -> None:
        """Remove an adapter (device powered the radio off)."""
        self.detach_all((device_id,), technology_name)

    def detach_all(self, device_ids: Iterable[str],
                   technology_name: str) -> None:
        """Remove these devices' adapters for the technology, with one
        roster change for them all.

        A device without one raises ``KeyError``; the adapters removed
        before it stay removed.
        """
        adapters = self._adapters
        roster = self._by_technology[technology_name]
        detached = False
        try:
            for device_id in device_ids:
                del adapters[(device_id, technology_name)]
                del roster[device_id]
                detached = True
        finally:
            if detached:
                self._adapters_changed(technology_name)

    def adapter(self, device_id: str, technology_name: str) -> Adapter | None:
        """The adapter, or ``None`` if the device lacks the technology."""
        return self._adapters.get((device_id, technology_name))

    def adapters_of(self, device_id: str) -> list[Adapter]:
        """All adapters belonging to one device."""
        return [adapter for (owner, _), adapter in self._adapters.items()
                if owner == device_id]

    def register_gateway(self, technology_name: str) -> None:
        """Declare operator infrastructure for a wide-area technology."""
        self._gateways.add(technology_name)
        self._topology_changed()

    def has_gateway(self, technology_name: str) -> bool:
        """Whether the wide-area technology has infrastructure."""
        return technology_name in self._gateways

    # -- queries --------------------------------------------------------------

    def reachable(self, a: str, b: str, technology_name: str) -> bool:
        """Whether ``a`` and ``b`` can communicate over the technology.

        Verdicts are memoized for the topology version: every send,
        connect and discovery scan asks this, and the same pairs repeat
        between changes, so the hit path is a single dict lookup.
        """
        key = (a, b, technology_name)
        cached = self._reachable_cache.get(key)
        if cached is not None:
            return cached
        verdict = self._compute_reachable(a, b, technology_name)
        self._reachable_cache[key] = verdict
        return verdict

    def _compute_reachable(self, a: str, b: str, technology_name: str) -> bool:
        if a == b:
            return False
        adapter_a = self._adapters.get((a, technology_name))
        adapter_b = self._adapters.get((b, technology_name))
        if adapter_a is None or adapter_b is None:
            return False
        if not (adapter_a._enabled and adapter_b._enabled):
            return False
        technology = adapter_a.technology
        if technology.needs_gateway:
            return technology_name in self._gateways
        node_a = self._world_nodes.get(a)
        node_b = self._world_nodes.get(b)
        if node_a is None or node_b is None:
            return False
        range_m = technology.range_m
        if range_m is None:
            return True
        # The squared test ``nodes_within`` and the sweep apply, not a
        # hypot: at the range edge the two round differently.
        dx = node_b.position.x - node_a.position.x
        dy = node_b.position.y - node_a.position.y
        return dx * dx + dy * dy <= range_m * range_m

    def link_quality(self, a: str, b: str, technology_name: str) -> float:
        """Quality in [0, 1] of the a<->b link; 0 when unreachable."""
        if not self.reachable(a, b, technology_name):
            return 0.0
        technology = self._adapters[(a, technology_name)].technology
        if technology.range_m is None:
            return 1.0
        return technology.link_quality(self.world.distance_between(a, b))

    def neighbors(self, device_id: str, technology_name: str) -> list[str]:
        """Device ids reachable from ``device_id`` over the technology.

        For wide-area technologies this is every attached device (the
        gateway bridges them); for local radios it is range-limited.
        Results are sorted for deterministic discovery order.
        """
        record = self._sweeps.get(technology_name)
        if record is not None and record.version == self._topology_version:
            # A current sweep covers every attached, powered, on-map
            # device of the technology: a version check, a row lookup
            # and a slice.  A device it skipped gets [] further down.
            row = record.rows.get(device_id)
            if row is not None:
                starts = record.starts
                return record.flat[starts[row]:starts[row + 1]]
        key = (device_id, technology_name)
        listing = self._neighbors_cache.get(key)
        if listing is not None:
            return list(listing)
        own = self._adapters.get(key)
        if own is None or not own._enabled:
            return []
        technology = own.technology
        # ``None`` doubles as the wide-area marker: gateway-bridged
        # technologies ignore geometry even when they quote a range.
        local_range = None if technology.needs_gateway else technology.range_m
        if local_range is None:
            listing = sorted(
                other for other in self._by_technology.get(technology_name, ())
                if other != device_id
                and self.reachable(device_id, other, technology_name))
        elif device_id not in self._world_nodes:
            return []  # off-map device: nothing in radio range
        elif (self._vector_min is not None
                and len(self._by_technology[technology_name])
                >= self._vector_min):
            # Vectorized regime, and no current sweep (see above): the
            # first read after any topology change re-sweeps everybody.
            record = self._vector_sweep(technology_name, local_range)
            row = record.rows[device_id]
            starts = record.starts
            return record.flat[starts[row]:starts[row + 1]]
        else:
            # Grid-backed: the world already limited candidates to the
            # radio disc (sorted), so only adapter power needs checking.
            adapters = self._adapters
            listing = []
            for node in self.world.nodes_within(device_id, local_range):
                other = adapters.get((node.node_id, technology_name))
                if other is not None and other._enabled:
                    listing.append(node.node_id)
        self._neighbors_cache[key] = listing
        return list(listing)

    def _vector_sweep(self, technology_name: str, radius: float) -> _Sweep:
        """Recompute every device's listing for one technology at once.

        Listings are bit-identical to the scalar path's: candidates come
        from cell bucketing and membership from the exact
        squared-distance comparison ``nodes_within`` applies.
        """
        roster = (self._tech_epoch.get(technology_name, 0),
                  self._population_epoch)
        nodes = self._world_nodes
        record = self._sweeps.get(technology_name)
        if record is not None and record.roster == roster:
            ids, rows = record.ids, record.rows
        else:
            adapters = self._adapters
            attached = sorted(self._by_technology[technology_name])
            ids = [device_id for device_id in attached
                   if device_id in nodes
                   and adapters[(device_id, technology_name)]._enabled]
            rows = {device_id: row for row, device_id in enumerate(ids)}
        positions = [nodes[device_id].position for device_id in ids]
        starts, flat = _sweep.sweep_pairs(
            [position.x for position in positions],
            [position.y for position in positions], radius)
        record = _Sweep(self._topology_version, roster, ids, rows, starts,
                        _sweep.gather(ids, flat))
        self._sweeps[technology_name] = record
        return record

    def record_transfer(self, device_id: str, technology_name: str,
                        nbytes: int) -> None:
        """Account ``nbytes`` of traffic to the sender's adapter."""
        adapter = self._adapters.get((device_id, technology_name))
        if adapter is not None:
            adapter.bytes_sent += nbytes
