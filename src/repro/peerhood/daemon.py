"""The PeerHood Daemon (PHD).

"PHD performs the major operations of PeerHood.  It is an independent
application which always runs on background and keeps tracks of other
wireless device discovery and service discovery in those devices.  It
maintains a list of neighbor devices as well as list of local and
remote services.  Services through PeerHood-enabled applications are
registered in PHD and PHD handles the service requests." (§4.2.1)

Concretely the daemon here:

* runs one periodic discovery loop per plugin (plugins 0.05 s apart),
  as two kernel cohort callbacks per scan;
* merges scan results into a neighbourhood table of
  :class:`~repro.peerhood.device.NeighborDevice` records;
* queries newly-seen devices for their registered services over a
  control channel (the ``_phd`` port) and answers such queries from
  peers — Table 3's "Service Discovery";
* fires ``device_found`` / ``device_lost`` / ``services_updated``
  events that the monitoring API and the social middleware build on.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Generator, Iterable

from repro.net.connection import Connection
from repro.net.stack import NetworkStack
from repro.peerhood.device import NeighborDevice, ServiceInfo
from repro.peerhood.errors import ServiceExistsError
from repro.peerhood.plugins.base import Plugin
from repro.radio.medium import Medium, NotReachableError
from repro.simenv import Delay, Environment

#: Control port every daemon listens on, on every technology.
PHD_PORT = "_phd"

#: Cheapest-first technology preference (§5.1: Bluetooth and WLAN are
#: "primely used"; GPRS costs money and is the fallback).
DEFAULT_PREFERENCE = ("bluetooth", "wlan", "gprs")


class PeerHoodDaemon:
    """Per-device background process maintaining the neighbourhood."""

    def __init__(self, env: Environment, medium: Medium, stack: NetworkStack,
                 device_id: str, plugins: Iterable[Plugin], *,
                 scan_interval: float = 10.0,
                 preference: tuple[str, ...] = DEFAULT_PREFERENCE) -> None:
        self.env = env
        self.medium = medium
        self.stack = stack
        self.device_id = device_id
        self.plugins: dict[str, Plugin] = {plugin.name: plugin
                                           for plugin in plugins}
        self.scan_interval = scan_interval
        self.preference = preference
        self.neighbors: dict[str, NeighborDevice] = {}
        self.local_services: dict[str, ServiceInfo] = {}
        self._found_callbacks: list[Callable[[str], None]] = []
        self._lost_callbacks: list[Callable[[str], None]] = []
        self._services_callbacks: list[Callable[[str], None]] = []
        self._running = False
        self._loops = [_ScanLoop(self, plugin)
                       for plugin in self.plugins.values()]
        #: Out-of-cycle scans run after a device disappeared (flap
        #: recovery); devices being probed right now.
        self.rediscovery_probes = 0
        self.stale_connections_dropped = 0
        self._rediscovering: set[str] = set()
        #: Devices with a service query in flight — dedupes the
        #: per-round retry of still-unfresh neighbours.
        self._querying: set[str] = set()
        #: Per-technology result of the latest scan — equals
        #: ``{d for d in neighbors if tech in neighbors[d].technologies}``
        #: at all times, letting a steady-state merge skip the
        #: walk over the whole neighbourhood table.
        self._seen_by_tech: dict[str, set[str]] = {}
        # Bound once: every inbound control half holds it.  ``None``
        # once closed.
        self._answer_control_bound: Callable[[Connection, object], None] | None
        self._answer_control_bound = self._answer_control
        stack.listen(PHD_PORT, self._accept_control)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin the per-plugin discovery loops.

        After a :meth:`stop`, a loop that has not ended yet carries on;
        only the ended ones start again.
        """
        if self._running:
            return
        self._running = True
        for index, loop in enumerate(self._loops):
            if not loop.pending:
                # Stagger plugin loops slightly so scans do not align.
                loop.arm(0.05 * index)

    def stop(self) -> None:
        """Stop discovery; the neighbourhood table freezes.

        A scan that ends while the daemon is stopped discards its
        result and ends its loop.
        """
        self._running = False

    def close(self) -> None:
        """Stop for good, and let go of what refers back to this daemon:
        the scan loops, the control listener and the event callbacks.

        The neighbourhood table and the counters stay readable; unlike
        after :meth:`stop`, :meth:`start` scans nothing.
        """
        self.stop()
        self.stack.unlisten(PHD_PORT)
        self._answer_control_bound = None
        for loop in self._loops:
            loop.close()
        self._loops = []
        self._found_callbacks.clear()
        self._lost_callbacks.clear()
        self._services_callbacks.clear()

    @property
    def running(self) -> bool:
        """Whether discovery loops are active."""
        return self._running

    # -- service registry (local) -----------------------------------------------

    def register_service(self, name: str, attributes: dict[str, str] | None,
                         on_connection: Callable[[Connection], None]) -> ServiceInfo:
        """Register a local service and start accepting connections.

        Raises :class:`ServiceExistsError` for duplicate names — the
        paper's daemon owns a flat per-device service namespace.
        """
        if name in self.local_services:
            raise ServiceExistsError(f"service {name!r} already registered "
                                     f"on {self.device_id!r}")
        info = ServiceInfo.make(name, self.device_id, attributes)
        self.local_services[name] = info
        self.stack.listen(name, on_connection)
        return info

    def unregister_service(self, name: str) -> None:
        """Remove a local service registration."""
        self.local_services.pop(name, None)
        self.stack.unlisten(name)

    # -- neighbourhood queries ---------------------------------------------------

    def device_listing(self) -> list[NeighborDevice]:
        """Snapshot of currently-known neighbour devices (sorted)."""
        return [self.neighbors[device_id]
                for device_id in sorted(self.neighbors)]

    def service_listing(self, device_id: str | None = None) -> list[ServiceInfo]:
        """Local + remote services, optionally restricted to one device."""
        services: list[ServiceInfo] = []
        if device_id is None or device_id == self.device_id:
            services.extend(self.local_services.values())
        for neighbor in self.device_listing():
            if device_id is None or neighbor.device_id == device_id:
                services.extend(neighbor.services)
        return services

    def knows(self, device_id: str) -> bool:
        """Whether the device is currently in the neighbourhood table."""
        return device_id in self.neighbors

    # -- events -----------------------------------------------------------------

    def on_device_found(self, callback: Callable[[str], None]) -> None:
        """Call ``callback(device_id)`` when a device first appears."""
        self._found_callbacks.append(callback)

    def on_device_lost(self, callback: Callable[[str], None]) -> None:
        """Call ``callback(device_id)`` when a device disappears."""
        self._lost_callbacks.append(callback)

    def on_services_updated(self, callback: Callable[[str], None]) -> None:
        """Call ``callback(device_id)`` when a device's services refresh."""
        self._services_callbacks.append(callback)

    # -- connections ----------------------------------------------------------

    def plugin_for(self, remote_id: str) -> Plugin | None:
        """Best plugin for reaching ``remote_id`` right now.

        Prefers the cheapest technology (per :attr:`preference`) over
        which the peer is actually reachable.
        """
        for name in self.preference:
            plugin = self.plugins.get(name)
            if plugin is None:
                continue
            if self.medium.reachable(self.device_id, remote_id, name):
                return plugin
        return None

    def connect(self, remote_id: str, service_name: str) -> Generator:
        """Process generator connecting to a service on a neighbour.

        Raises :class:`NotReachableError` when no technology reaches
        the peer.
        """
        plugin = self.plugin_for(remote_id)
        if plugin is None:
            raise NotReachableError(
                f"no technology reaches {remote_id!r} from {self.device_id!r}")
        connection = yield from plugin.connect(remote_id, service_name)
        return connection

    # -- discovery internals -------------------------------------------------

    def _merge_scan(self, technology_name: str, found: set[str]) -> None:
        now = self.env.now
        neighbors = self.neighbors
        new_devices: list[str] = []
        unfresh: list[str] = []
        for device_id in sorted(found):
            neighbor = neighbors.get(device_id)
            if neighbor is None:
                neighbor = NeighborDevice(device_id=device_id)
                neighbors[device_id] = neighbor
                new_devices.append(device_id)
            elif not neighbor.services_fresh:
                unfresh.append(device_id)
            neighbor.technologies.add(technology_name)
            neighbor.last_seen = now
        # Devices previously visible on this technology but now absent.
        # The table walk preserves the historical (insertion-order)
        # loss sequence but is skipped entirely in the steady state,
        # where the previous scan saw a subset of this one.
        lost_devices: list[str] = []
        seen = self._seen_by_tech.get(technology_name)
        if seen is not None and not seen.issubset(found):
            for device_id, neighbor in list(neighbors.items()):
                if (technology_name in neighbor.technologies
                        and device_id not in found):
                    neighbor.technologies.discard(technology_name)
                    if not neighbor.technologies:
                        del neighbors[device_id]
                        lost_devices.append(device_id)
        self._seen_by_tech[technology_name] = found
        for device_id in new_devices:
            for callback in list(self._found_callbacks):
                callback(device_id)
            self._start_service_query(device_id)
        # A neighbour whose service query failed (e.g. its link was
        # still settling at first contact) would otherwise stay
        # serviceless forever: only *new* devices are queried, and a
        # continuously-visible device never becomes new again.  Retry
        # unfresh neighbours each round until a query lands.
        for device_id in unfresh:
            self._start_service_query(device_id)
        for device_id in lost_devices:
            # An abrupt disappearance (flap, walk-away) must not leave
            # half-open connections behind: closing them wakes every
            # process blocked on recv (it resumes with None) and clears
            # the stack's registry entries.
            self.stale_connections_dropped += self.stack.drop_peer(device_id)
            for callback in list(self._lost_callbacks):
                callback(device_id)
            if self._running and device_id not in self._rediscovering:
                # Churn is often a flap, not a departure: probe again
                # at short backoffs instead of waiting a full scan
                # interval, so re-association is quick (§5.1 churn).
                self._rediscovering.add(device_id)
                self.env.spawn(self._rediscovery_probe(device_id),
                               name=f"phd:{self.device_id}:rediscover:{device_id}")

    def _rediscovery_probe(self, device_id: str) -> Generator:
        """Short-backoff scans trying to re-find a just-lost device.

        A flapped device comes back within seconds; waiting for the
        next periodic scan would leave the neighbourhood (and every
        layer above it) blind for up to ``scan_interval``.  Three
        escalating probes cover the common flap window; a device that
        stays gone is left to the periodic loop.
        """
        self.rediscovery_probes += 1
        try:
            for delay in (1.0, 2.0, 4.0):
                yield Delay(delay)
                if not self._running or device_id in self.neighbors:
                    return None
                for plugin in list(self.plugins.values()):
                    found = yield from plugin.discover()
                    if device_id in found:
                        self._merge_scan(plugin.name, set(found))
                        return None
            return None
        finally:
            self._rediscovering.discard(device_id)

    def _start_service_query(self, device_id: str) -> None:
        if device_id in self._querying:
            return
        self._querying.add(device_id)
        self.env.spawn(self._query_services(device_id),
                       name=f"phd:{self.device_id}:svcq:{device_id}")

    def _query_services(self, device_id: str) -> Generator:
        """Fetch the remote daemon's service list over the control port.

        One immediate retry covers the window where the peer was
        discovered but its link is still settling; a device whose query
        keeps failing stays serviceless (``services_fresh`` False)
        until the next discovery round retries it.
        """
        try:
            for attempt in (1, 2):
                plugin = self.plugin_for(device_id)
                if plugin is None:
                    return None
                try:
                    connection = yield from plugin.connect(device_id, PHD_PORT)
                except (ConnectionError, OSError):
                    if attempt == 1:
                        yield Delay(1.0)
                        continue
                    return None
                try:
                    connection.send({"op": "get_services"})
                    reply = yield connection.recv()
                except (ConnectionError, OSError):
                    reply = None
                finally:
                    connection.close()
                if isinstance(reply, dict) and "services" in reply:
                    break
                if attempt == 1:
                    yield Delay(1.0)
        finally:
            self._querying.discard(device_id)
        neighbor = self.neighbors.get(device_id)
        if neighbor is None or not isinstance(reply, dict):
            return None
        neighbor.services = [
            ServiceInfo.make(entry["name"], device_id,
                             dict(entry.get("attributes", [])))
            for entry in reply.get("services", [])
        ]
        neighbor.services_fresh = True
        for callback in list(self._services_callbacks):
            callback(device_id)
        return neighbor.services

    def _accept_control(self, connection: Connection) -> None:
        connection.on_payload = self._answer_control_bound

    def _answer_control(self, connection: Connection, request: object) -> None:
        """Answer a peer daemon's one control request in its delivery
        event; later payloads on the link queue unread."""
        connection.on_payload = None
        try:
            replied = False
            operation = request.get("op") if isinstance(request, dict) else None
            if operation == "get_services":
                services = [{"name": info.name,
                             "attributes": [list(pair) for pair in info.attributes]}
                            for info in self.local_services.values()]
                with contextlib.suppress(ConnectionError, OSError):
                    connection.send({"services": services})
                    replied = True
            elif operation == "get_neighbors":
                # Share our current neighbourhood table — the primitive
                # gossip-based overlay expansion builds on (repro.adhoc).
                with contextlib.suppress(ConnectionError, OSError):
                    connection.send({"neighbors": sorted(self.neighbors)})
                    replied = True
            if not replied:
                # A request we could not answer (malformed — e.g.
                # corrupted in flight — or the reply send failed) must
                # not leave the peer blocked on recv: closing wakes it
                # with ``None`` so its retry logic runs.  On success the
                # *requester* closes, because closing here would
                # discard the in-flight reply.
                connection.close()
        except Exception as exc:
            connection.answer_failed(f"phd:{self.device_id}:ctl", exc)


class _ScanLoop:
    """One plugin's periodic discovery loop, run as kernel callbacks.

    Each scan is two callbacks: :meth:`begin` starts the plugin's scan
    and :meth:`end` merges its listing and schedules the next
    :meth:`begin` one scan interval later.  Both go through
    ``Environment.call_in_cohort``, so the loops of a crowd whose scans
    fall due at one instant share one kernel event, and each callback
    fires exactly where a process resume would have.  A callback that
    raises ends this loop only, and the run loop raises
    ``SimulationError`` naming ``phd:<device>:<technology>``.
    """

    __slots__ = ("_daemon", "_plugin", "name", "pending", "_begin", "_end")

    def __init__(self, daemon: PeerHoodDaemon, plugin: Plugin) -> None:
        self._daemon = daemon
        self._plugin = plugin
        self.name = f"phd:{daemon.device_id}:{plugin.name}"
        #: Whether a callback of this loop is scheduled.
        self.pending = False
        # Bound once: every scan schedules both, and a bound method
        # made per call is one more object for the cyclic collector.
        self._begin = self.begin
        self._end = self.end

    def close(self) -> None:
        """Let go of the bound callbacks, which refer back to the loop;
        a scheduled callback still ends the loop, since the daemon has
        stopped."""
        del self._begin, self._end

    def arm(self, delay: float) -> None:
        """Schedule the loop's next scan ``delay`` seconds from now."""
        self.pending = True
        self._daemon.env.call_in_cohort(delay, self._begin)

    def begin(self) -> None:
        """Start a scan, or end the loop if the daemon has stopped."""
        self.pending = False
        daemon = self._daemon
        if not daemon._running:
            return
        try:
            duration = self._plugin.begin_scan()
            if duration is None:
                # No live adapter: an empty scan that takes no time.
                daemon._merge_scan(self._plugin.name, set())
                self.arm(daemon.scan_interval)
            else:
                self.pending = True
                daemon.env.call_in_cohort(duration, self._end)
        except Exception as exc:
            daemon.env.note_failure(self, exc)

    def end(self) -> None:
        """Merge the scan's listing; a daemon stopped since discards it."""
        self.pending = False
        daemon = self._daemon
        if not daemon._running:
            return
        try:
            found = self._plugin.end_scan()
            daemon._merge_scan(self._plugin.name, set(found))
            self.arm(daemon.scan_interval)
        except Exception as exc:
            daemon.env.note_failure(self, exc)
