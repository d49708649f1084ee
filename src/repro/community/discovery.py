"""Dynamic group discovery — the paper's core contribution (Figure 6).

The algorithm, straight from the figure:

1. Collect the active user's personal interests.
2. Get the list of all nearby devices (from PeerHood).
3. For each personal interest, compare it with every nearby member's
   interests; on a match, both the active user and the matching member
   are listed in that interest's group.

The engine runs this *reactively*: whenever PeerHood's service
discovery reports a neighbour advertising the PeerHoodCommunity
service, the engine fetches that member's interest list over the
``PS_GETINTERESTLIST`` operation and folds it into the group registry.
When PeerHood reports the device lost, the member leaves every group
("if any remote device is unreachable, than that remote device is
considered as disconnected and removed from all associated interest
groups", §5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Generator

from repro.community import protocol
from repro.community.connections import PeerConnectionPool
from repro.community.groups import GroupRegistry
from repro.community.profile import ProfileStore
from repro.community.semantics import ExactMatcher, SemanticMatcher
from repro.peerhood.library import PeerHoodLibrary


@dataclass(frozen=True)
class ProbeRecord:
    """One completed interest probe of a neighbour (for benches).

    Attributes:
        device_id: Probed device.
        started_at / finished_at: Virtual-time window of the probe.
        member_id: Member found on the device (``None`` if nobody was
            logged in).
        matched: Interests that matched and formed/extended groups.
    """

    device_id: str
    started_at: float
    finished_at: float
    member_id: str | None
    matched: tuple[str, ...]


@dataclass
class _PeerEntry:
    member_id: str
    interests: list[str]


class DynamicGroupEngine:
    """Maintains the local device's dynamic interest groups."""

    def __init__(self, library: PeerHoodLibrary, store: ProfileStore,
                 pool: PeerConnectionPool,
                 matcher: ExactMatcher | SemanticMatcher | None = None,
                 *, retry_interval: float = 15.0, max_retries: int = 3,
                 reconcile_interval: float = 30.0) -> None:
        self.library = library
        self.store = store
        self.pool = pool
        self.matcher = matcher if matcher is not None else ExactMatcher()
        self.env = library.daemon.env
        self.groups = GroupRegistry()
        self.directory: dict[str, _PeerEntry] = {}
        self.probe_log: list[ProbeRecord] = []
        self.retry_interval = retry_interval
        self.max_retries = max_retries
        self.reconcile_interval = reconcile_interval
        self.reconcile_probes = 0
        self._probing: set[str] = set()
        self._started = False

    def start(self) -> None:
        """Hook into PeerHood's discovery events."""
        if self._started:
            return
        self._started = True
        daemon = self.library.daemon
        daemon.on_services_updated(self._handle_services_updated)
        daemon.on_device_lost(self._handle_device_lost)
        # Neighbours discovered before the engine started still count.
        for neighbor in daemon.device_listing():
            if neighbor.services_fresh:
                self._handle_services_updated(neighbor.device_id)
        if self.reconcile_interval > 0:
            self.env.spawn(self._reconcile_loop(),
                           name=f"dgd:{self.library.device_id}:reconcile")

    # -- event handlers -------------------------------------------------------

    def _handle_services_updated(self, device_id: str) -> None:
        if not self._started:
            return
        services = self.library.get_service_listing(device_id)
        if not any(service.name == self.pool.service_name
                   for service in services):
            return
        if device_id in self._probing:
            return
        self._probing.add(device_id)
        self.env.spawn(self._probe(device_id, attempt=0),
                       name=f"dgd:{self.library.device_id}:probe:{device_id}")

    def _handle_device_lost(self, device_id: str) -> None:
        self.pool.drop(device_id)
        entry = self.directory.pop(device_id, None)
        self._probing.discard(device_id)
        if entry is None:
            return
        # The member leaves every group *unless the same member is still
        # present via another device* (multi-device users).
        if any(other.member_id == entry.member_id
               for other in self.directory.values()):
            return
        self.groups.remove_member_everywhere(entry.member_id, self.env.now,
                                             reason="departed")

    # -- probing --------------------------------------------------------------

    def _probe(self, device_id: str, attempt: int) -> Generator:
        started = self.env.now
        request = protocol.make_request(protocol.PS_GETINTERESTLIST)
        try:
            connection = yield from self.pool.ensure(device_id)
            connection.send(request)
            payload = yield connection.recv()
        except (ConnectionError, OSError):
            # Transient link failure: the peer is probably still there
            # (churn, flap).  Retry like the nobody-logged-in case
            # instead of silently forgetting the device.
            self._probe_failed(device_id, attempt, drop=True)
            return None
        if payload is None:
            self._probe_failed(device_id, attempt)
            return None
        try:
            status = protocol.response_status(payload)
        except protocol.ProtocolError:
            # Corrupted-in-flight reply; same treatment as a lost one.
            self._probe_failed(device_id, attempt, drop=True)
            return None
        if status == protocol.NO_MEMBERS_YET:
            # Nobody logged in over there yet; retry a few times.
            self._probe_failed(device_id, attempt)
            return None
        if status != protocol.STATUS_OK:
            # Only a BAD_REQUEST is worth repeating: our request
            # corrupted en route, and the peer itself is fine.
            self._probe_failed(device_id, attempt,
                               retry=status == protocol.BAD_REQUEST)
            return None
        member_id = payload["member_id"]
        interests = list(payload.get("interests", []))
        self.directory[device_id] = _PeerEntry(member_id, interests)
        matched = self._match_member(member_id, interests)
        self.probe_log.append(ProbeRecord(
            device_id=device_id, started_at=started,
            finished_at=self.env.now, member_id=member_id,
            matched=tuple(matched)))
        self._probing.discard(device_id)
        return matched

    def _probe_failed(self, device_id: str, attempt: int, *,
                      drop: bool = False, retry: bool = True) -> None:
        """End a failed probe: drop the pooled link when it is suspect,
        release the device, and schedule the next attempt while
        retries remain."""
        if drop:
            self.pool.drop(device_id)
        self._probing.discard(device_id)
        if retry and attempt < self.max_retries:
            self.env.call_in(self.retry_interval,
                             self._retry_probe, device_id, attempt + 1)

    def reconcile(self) -> int:
        """Probe service-advertising neighbours missing from the directory.

        Anti-entropy pass for the fault-injected world: a probe chain
        that exhausted its retries during a bad patch leaves a visible
        neighbour with no directory entry — and no event will ever
        re-probe it, because ``services_updated`` fires once per
        (re)discovery.  Returns the number of probes started.
        """
        started = 0
        for neighbor in self.library.daemon.device_listing():
            device_id = neighbor.device_id
            if device_id in self.directory or device_id in self._probing:
                continue
            services = self.library.get_service_listing(device_id)
            if not any(service.name == self.pool.service_name
                       for service in services):
                continue
            self._probing.add(device_id)
            self.reconcile_probes += 1
            started += 1
            self.env.spawn(
                self._probe(device_id, attempt=0),
                name=f"dgd:{self.library.device_id}:reconcile:{device_id}")
        return started

    def _reconcile_loop(self) -> Generator:
        from repro.simenv import Delay
        while self._started and self.library.daemon.running:
            yield Delay(self.reconcile_interval)
            if not self._started or not self.library.daemon.running:
                break
            self.reconcile()
        return None

    def _retry_probe(self, device_id: str, attempt: int) -> None:
        if device_id in self._probing or device_id in self.directory:
            return
        if not self.library.daemon.knows(device_id):
            return
        self._probing.add(device_id)
        self.env.spawn(self._probe(device_id, attempt),
                       name=f"dgd:{self.library.device_id}:reprobe:{device_id}")

    # -- the Figure 6 algorithm ------------------------------------------------

    def _match_member(self, member_id: str, interests: list[str]) -> list[str]:
        """Compare one member's interests with ours; update groups."""
        active = self.store.active
        if active is None:
            return []
        own_member = active.member_id
        matched: list[str] = []
        for own_interest in active.interests:
            canonical = self.matcher.canonical(own_interest)
            for remote_interest in interests:
                if self.matcher.same(own_interest, remote_interest):
                    group = self.groups.ensure(canonical, self.env.now)
                    group.add(member_id, self.env.now, reason="dynamic")
                    group.add(own_member, self.env.now, reason="dynamic")
                    matched.append(canonical)
                    break
        return matched

    def refresh(self) -> None:
        """Re-run matching over every known neighbour.

        Needed after the local user edits their interests or after
        semantics teaching changed canonical forms.  Manual memberships
        survive; dynamic memberships are recomputed.
        """
        active = self.store.active
        now = self.env.now
        for group_name in self.groups.names():
            group = self.groups.get(group_name)
            if group is None:
                continue
            for member_id in list(group.members):
                if member_id not in group.manual_members:
                    group.remove(member_id, now, reason="dynamic")
        if active is None:
            return
        for entry in self.directory.values():
            self._match_member(entry.member_id, entry.interests)

    # -- user-facing group operations (Table 7) ---------------------------------

    def group_names(self) -> list[str]:
        """View All Groups."""
        return [group.interest for group in self.groups.non_empty()]

    def members_of(self, interest: str) -> list[str]:
        """View Members of Group."""
        group = self.groups.get(self.matcher.canonical(interest))
        if group is None:
            return []
        return sorted(group.members)

    def my_groups(self) -> list[str]:
        """Groups the local member currently belongs to."""
        active = self.store.active
        if active is None:
            return []
        return [name for name in self.groups.groups_of(active.member_id)
                if self.groups.get(name) is not None
                and len(self.groups.get(name)) > 0]

    def join_group(self, interest: str) -> None:
        """Join a group manually (Table 7: Join/Leave Manually)."""
        active = self.store.active
        if active is None:
            raise PermissionError("no member logged in")
        canonical = self.matcher.canonical(interest)
        group = self.groups.ensure(canonical, self.env.now)
        group.add(active.member_id, self.env.now, reason="manual")

    def leave_group(self, interest: str) -> None:
        """Leave a group manually."""
        active = self.store.active
        if active is None:
            raise PermissionError("no member logged in")
        group = self.groups.get(self.matcher.canonical(interest))
        if group is not None:
            group.remove(active.member_id, self.env.now, reason="manual")

    def teach_semantics(self, term_a: str, term_b: str) -> None:
        """Combine two interest terms meaning the same issue (§5.1).

        Only meaningful with a :class:`SemanticMatcher`; merges the two
        terms' groups and re-runs matching so previously-split groups
        (the biking/cycling problem of §5.2.6) become one.
        """
        if not isinstance(self.matcher, SemanticMatcher):
            raise TypeError("semantic teaching requires a SemanticMatcher")
        self.matcher.teach(term_a, term_b)
        # Any existing group whose name is no longer canonical folds
        # into the canonical group.
        for name in self.groups.names():
            canonical = self.matcher.canonical(name)
            if canonical != name:
                self.groups.merge(name, canonical, self.env.now)
        self.refresh()
