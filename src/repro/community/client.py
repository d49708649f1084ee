"""The PeerHood Community client (§5.2.3.2).

"The main functionality of the client is to connect to remote
application servers on remote PTDs and send requests and receive the
desired information from servers."

Every public operation is a process generator implementing one of the
paper's MSCs (Figures 11-17): the request goes out on **all** pooled
connections simultaneously, replies are gathered, and the aggregated
result is returned.

Links are *expected* to fail mid-exchange (churn is the common case in
a mobile neighbourhood), so every exchange runs under a
:class:`~repro.net.retry.RetryPolicy`: per-attempt reply timeouts,
capped exponential backoff with deterministic jitter, and a virtual-
time retry budget.  A peer whose exchanges keep failing is dropped
from the round; an operation whose *every* peer failed returns a typed
:class:`~repro.net.retry.Degraded` result instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Generator
from random import Random
from typing import Any

from repro.community import protocol
from repro.community.connections import PeerConnectionPool
from repro.community.profile import MailMessage, ProfileStore
from repro.net.connection import Connection
from repro.net.messages import frame_size
from repro.net.retry import (
    DEFAULT_CLIENT_POLICY,
    AttemptTimeoutError,
    CorruptReplyError,
    Degraded,
    RetryCounters,
    RetryPolicy,
    is_degraded,
    recv_with_timeout,
)
from repro.peerhood.library import PeerHoodLibrary
from repro.simenv import Delay

#: Failures that justify retrying an exchange: the link died, the
#: attempt timed out, or the frame failed protocol validation
#: (corruption en route).  Anything else is a bug and must surface.
RETRYABLE_ERRORS = (ConnectionError, OSError, protocol.ProtocolError)


@dataclass(frozen=True)
class ExchangeReport:
    """Outcome of one broadcast round-set, for metrics and degradation.

    Attributes:
        operation: The ``PS_*`` operation performed.
        targets: Devices the request was addressed to.
        replied: Devices that produced a validated reply.
        failed: Devices that never replied despite retries.
        attempts: Total per-device attempts consumed.
    """

    operation: str
    targets: tuple[str, ...]
    replied: tuple[str, ...]
    failed: tuple[str, ...]
    attempts: int

    @property
    def total_failure(self) -> bool:
        """There were peers to ask, and none of them answered."""
        return bool(self.targets) and not self.replied


#: Sentinel for "no exchange has run yet": empty targets, so it can
#: never read as a total failure.
_NO_EXCHANGE = ExchangeReport(operation="", targets=(), replied=(),
                              failed=(), attempts=0)


# -- reply aggregation ---------------------------------------------------------
#
# Pure functions over ``[(device_id, response), ...]`` reply lists.
# They contain no transport state, so the same aggregation runs
# unchanged whichever backend carried the exchange.

def merge_member_lists(replies: list[tuple[str, dict]]) -> list[dict]:
    """Deduplicated members across every OK reply, ordered by id.

    Per Figure 11, each server names its own online member; the same
    member seen via two devices must appear once.
    """
    members: list[dict] = []
    seen: set[str] = set()
    for _, payload in replies:
        if protocol.response_status(payload) == protocol.STATUS_OK:
            for member in payload.get("members", []):
                if member["member_id"] not in seen:
                    seen.add(member["member_id"])
                    members.append(member)
    return sorted(members, key=lambda member: member["member_id"])


def merge_interest_lists(replies: list[tuple[str, dict]],
                         interests: list[str]) -> list[str]:
    """Fold remote interests into ``interests`` (mutated and returned).

    Per the Figure 12 MSC, a received interest is added only "if it
    doesn't exist already", preserving first-seen order.
    """
    for _, payload in replies:
        if protocol.response_status(payload) == protocol.STATUS_OK:
            for interest in payload.get("interests", []):
                if interest not in interests:
                    interests.append(interest)
    return interests


def collect_shared_listings(replies: list[tuple[str, dict]]) \
        -> list[tuple[str, list]]:
    """``(device_id, files)`` per OK reply, sorted by device."""
    listings = [(device_id, payload.get("files", []))
                for device_id, payload in replies
                if protocol.response_status(payload) == protocol.STATUS_OK]
    return sorted(listings)


class CommunityClient:
    """Client side of the reference application for one device."""

    def __init__(self, library: PeerHoodLibrary, store: ProfileStore,
                 pool: PeerConnectionPool,
                 retry_policy: RetryPolicy | None = None) -> None:
        self.library = library
        self.store = store
        self.pool = pool
        self.env = library.daemon.env
        self.requests_sent = 0
        self.retry_policy = retry_policy or DEFAULT_CLIENT_POLICY
        self.retry_counters = RetryCounters()
        self.last_exchange = _NO_EXCHANGE
        #: Created at the first backoff: most clients never back off.
        self._backoff_rng: Random | None = None

    @property
    def device_id(self) -> str:
        """Device this client runs on."""
        return self.library.device_id

    def _backoff_stream(self) -> Random:
        """This client's ``retry:<device>`` stream.  A stream's seed
        depends on the root seed and its name only, so creating it late
        draws the same delays."""
        rng = self._backoff_rng
        if rng is None:
            rng = self._backoff_rng = self.env.random.stream(
                f"retry:{self.device_id}")
        return rng

    def _require_member(self) -> str:
        active = self.store.active
        if active is None:
            raise PermissionError("no member logged in on "
                                  f"{self.device_id!r}")
        return active.member_id

    # -- broadcast machinery --------------------------------------------------

    def _note_failure(self, device_id: str, exc: BaseException) -> None:
        """Classify one failed exchange and reset the peer's connection."""
        self.pool.drop(device_id)
        if isinstance(exc, AttemptTimeoutError):
            self.retry_counters.timeouts += 1
        elif isinstance(exc, (CorruptReplyError, protocol.ProtocolError)):
            self.retry_counters.corrupt_replies += 1

    def _validated_reply(self, device_id: str, payload: Any) -> dict:
        """Check one reply; raises a retryable error when unusable."""
        if payload is None:
            raise ConnectionError(
                f"connection to {device_id!r} lost mid-exchange")
        status = protocol.response_status(payload)  # ProtocolError if corrupt
        if status == protocol.BAD_REQUEST:
            # Our requests are built by make_request and always well
            # formed; BAD_REQUEST therefore means the frame corrupted
            # en route and the exchange is worth retrying.
            raise CorruptReplyError(
                f"{device_id!r} rejected a corrupted request")
        return payload

    def _broadcast(self, request: dict) -> Generator:
        """Send ``request`` to every neighbour, gather validated replies.

        Mirrors Figure 9: "gets the list of all nearby PeerHood Capable
        devices [and] connects to the server of all those nearby
        devices through the service PeerHoodCommunity".  Sends first
        (simultaneously), receives second, so the elapsed virtual time
        is the *maximum* of the per-server round trips, not their sum —
        matching the MSCs' parallel arrows.

        Peers whose exchange failed are retried in later rounds (one
        shared backoff per round keeps the arrows parallel) until the
        policy's attempts or budget run out; survivors' replies are
        returned as ``[(device_id, response), ...]`` and the full
        outcome is recorded in :attr:`last_exchange`.
        """
        operation = str(request.get("op", "?"))
        # Measured once (FrameError surfaces before any peer is
        # charged); every send still hands its peer its own copy.
        nbytes = frame_size(request)
        policy = self.retry_policy
        targets = self.library.devices_with_service(self.pool.service_name)
        pending = list(targets)
        replies: list[tuple[str, dict]] = []
        attempts = 0
        started = self.env.now
        for attempt in range(1, policy.max_attempts + 1):
            if not pending:
                break
            if attempt > 1:
                if not policy.within_budget(started, self.env.now):
                    break
                delay = policy.backoff_delay(attempt - 1,
                                             self._backoff_stream())
                self.retry_counters.record_backoff(delay)
                yield Delay(delay)
            live: list[tuple[str, Connection]] = []
            failed: list[str] = []
            for device_id in pending:
                self.retry_counters.record_attempt()
                if attempt > 1:
                    self.retry_counters.record_retry(operation)
                attempts += 1
                try:
                    connection = yield from self.pool.ensure(device_id)
                    connection.send(request, nbytes)
                except RETRYABLE_ERRORS as exc:
                    self._note_failure(device_id, exc)
                    failed.append(device_id)
                    continue
                self.requests_sent += 1
                live.append((device_id, connection))
            for device_id, connection in live:
                try:
                    payload = yield from recv_with_timeout(
                        self.env, connection, policy.attempt_timeout_s)
                    payload = self._validated_reply(device_id, payload)
                except RETRYABLE_ERRORS as exc:
                    self._note_failure(device_id, exc)
                    failed.append(device_id)
                    continue
                replies.append((device_id, payload))
            pending = failed
        for _ in pending:
            self.retry_counters.record_giveup()
        self.last_exchange = ExchangeReport(
            operation, tuple(targets),
            tuple(device_id for device_id, _ in replies),
            tuple(pending), attempts)
        return replies

    def _degraded(self, partial: Any = None) -> Degraded:
        """Typed degraded result for the exchange in :attr:`last_exchange`."""
        report = self.last_exchange
        self.retry_counters.record_degraded()
        return Degraded(operation=report.operation,
                        reason="no peer completed the exchange",
                        attempts=report.attempts,
                        failed_peers=report.failed,
                        partial=partial)

    def _single(self, device_id: str, request: dict) -> Generator:
        """One request/response exchange with one specific server.

        Retries under the client policy; returns the reply payload, or
        a :class:`Degraded` result once retries are exhausted.
        """
        operation = str(request.get("op", "?"))
        policy = self.retry_policy
        started = self.env.now
        reason = "no attempt ran"
        attempts = 0
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                if not policy.within_budget(started, self.env.now):
                    break
                delay = policy.backoff_delay(attempt - 1,
                                             self._backoff_stream())
                self.retry_counters.record_backoff(delay)
                yield Delay(delay)
                self.retry_counters.record_retry(operation)
            self.retry_counters.record_attempt()
            attempts += 1
            try:
                connection = yield from self.pool.ensure(device_id)
                connection.send(request)
                self.requests_sent += 1
                payload = yield from recv_with_timeout(
                    self.env, connection, policy.attempt_timeout_s)
                payload = self._validated_reply(device_id, payload)
            except RETRYABLE_ERRORS as exc:
                self._note_failure(device_id, exc)
                reason = f"{type(exc).__name__}: {exc}"
                continue
            return payload
        self.retry_counters.record_giveup()
        self.retry_counters.record_degraded()
        return Degraded(operation=operation, reason=reason,
                        attempts=attempts, failed_peers=(device_id,))

    # -- operations (Figures 11-17) ------------------------------------------

    def get_online_members(self) -> Generator:
        """Figure 11: list the online members across the neighbourhood."""
        request = protocol.make_request(protocol.PS_GETONLINEMEMBERLIST)
        replies = yield from self._broadcast(request)
        if self.last_exchange.total_failure:
            return self._degraded(partial=[])
        return merge_member_lists(replies)

    def get_interest_list(self) -> Generator:
        """Figure 12: the union of interests available around here.

        Per the MSC, newly received interests are compared against the
        stored list and added only "if it doesn't exist already".
        """
        request = protocol.make_request(protocol.PS_GETINTERESTLIST)
        replies = yield from self._broadcast(request)
        interests: list[str] = []
        active = self.store.active
        if active is not None:
            interests.extend(active.interests.as_list())
        if self.last_exchange.total_failure:
            return self._degraded(partial=interests)
        return merge_interest_lists(replies, interests)

    def get_interested_members(self, interest: str) -> Generator:
        """Table 6 row 3: members sharing one interest."""
        request = protocol.make_request(protocol.PS_GETINTERESTEDMEMBERLIST,
                                        interest=interest)
        replies = yield from self._broadcast(request)
        if self.last_exchange.total_failure:
            return self._degraded(partial=[])
        return merge_member_lists(replies)

    def view_profile(self, member_id: str) -> Generator:
        """Figure 13: fetch one member's profile from whoever holds it."""
        requester = self._require_member()
        request = protocol.make_request(protocol.PS_GETPROFILE,
                                        member_id=member_id,
                                        requester=requester)
        replies = yield from self._broadcast(request)
        if self.last_exchange.total_failure:
            return self._degraded()
        for _, payload in replies:
            if protocol.response_status(payload) == protocol.STATUS_OK:
                return payload["profile"]
        return None

    def put_profile_comment(self, member_id: str, comment: str) -> Generator:
        """Figure 14: write a comment onto a member's profile."""
        requester = self._require_member()
        request = protocol.make_request(protocol.PS_ADDPROFILECOMMENT,
                                        member_id=member_id,
                                        requester=requester,
                                        comment=comment)
        replies = yield from self._broadcast(request)
        if self.last_exchange.total_failure:
            return self._degraded()
        return any(protocol.response_status(payload)
                   == protocol.SUCCESSFULLY_WRITTEN
                   for _, payload in replies)

    def view_trusted_friends(self, member_id: str) -> Generator:
        """Figure 15: the trusted-friend list of a member."""
        request = protocol.make_request(protocol.PS_GETTRUSTEDFRIEND,
                                        member_id=member_id)
        replies = yield from self._broadcast(request)
        if self.last_exchange.total_failure:
            return self._degraded()
        for _, payload in replies:
            if protocol.response_status(payload) == protocol.STATUS_OK:
                return payload.get("trusted", [])
        return None

    def view_shared_content(self, member_id: str) -> Generator:
        """Figure 16: two-phase trusted content listing.

        First ``PS_CHECKTRUSTED`` establishes standing; only if trusted
        does the client send ``PS_GETSHAREDCONTENT``.  Returns the file
        list, or the blocking status string.
        """
        requester = self._require_member()
        check = protocol.make_request(protocol.PS_CHECKTRUSTED,
                                      member_id=member_id,
                                      requester=requester)
        replies = yield from self._broadcast(check)
        if self.last_exchange.total_failure:
            return self._degraded()
        holder: str | None = None
        for device_id, payload in replies:
            status = protocol.response_status(payload)
            if status == protocol.NOT_TRUSTED_YET:
                return protocol.NOT_TRUSTED_YET
            if status == protocol.STATUS_OK:
                holder = device_id
        if holder is None:
            return protocol.NO_MEMBERS_YET
        fetch = protocol.make_request(protocol.PS_GETSHAREDCONTENT,
                                      member_id=member_id,
                                      requester=requester)
        payload = yield from self._single(holder, fetch)
        if is_degraded(payload):
            return payload
        if protocol.response_status(payload) == protocol.STATUS_OK:
            return payload.get("files", [])
        return protocol.response_status(payload)

    def browse_shared_content(self) -> Generator:
        """Table 6 row 8: shared content offered across the neighbourhood.

        Broadcasts ``PS_SHAREDCONTENT``; each server replies with the
        listing of its active member's shared files — provided that
        member trusts *us*.  Returns ``[(device_id, files), ...]``
        sorted by device, one entry per neighbour that answered OK.
        """
        requester = self._require_member()
        request = protocol.make_request(protocol.PS_SHAREDCONTENT,
                                        requester=requester)
        replies = yield from self._broadcast(request)
        if self.last_exchange.total_failure:
            return self._degraded(partial=[])
        return collect_shared_listings(replies)

    def send_message(self, member_id: str, subject: str, body: str) -> Generator:
        """Figure 17: deliver a mail message to a member's device.

        Returns the server's status string
        (``SUCCESSFULLY_WRITTEN``/``UNSUCCESSFULL``) or
        ``NO_MEMBERS_YET`` when nobody around holds that member.
        """
        sender = self._require_member()
        request = protocol.make_request(protocol.PS_MSG,
                                        receiver=member_id, sender=sender,
                                        subject=subject, body=body)
        replies = yield from self._broadcast(request)
        if self.last_exchange.total_failure:
            return self._degraded()
        outcome = protocol.NO_MEMBERS_YET
        for _, payload in replies:
            status = protocol.response_status(payload)
            if status == protocol.SUCCESSFULLY_WRITTEN:
                outcome = status
                break
            if status == protocol.UNSUCCESSFULL:
                outcome = status
        if outcome == protocol.SUCCESSFULLY_WRITTEN:
            active = self.store.active
            if active is not None:
                active.sent.append(MailMessage(
                    sender=sender, receiver=member_id, subject=subject,
                    body=body, sent_at=self.env.now))
        return outcome

    def request_trust(self, member_id: str) -> Generator:
        """Ask a member to accept us as trusted friend."""
        requester = self._require_member()
        request = protocol.make_request(protocol.PS_ADDTRUSTED,
                                        member_id=member_id,
                                        requester=requester)
        replies = yield from self._broadcast(request)
        if self.last_exchange.total_failure:
            return self._degraded()
        return any(protocol.response_status(payload)
                   == protocol.SUCCESSFULLY_WRITTEN
                   for _, payload in replies)

    def check_member_location(self, member_id: str) -> Generator:
        """Which neighbouring device hosts ``member_id`` (PS_CHECKMEMBERID)."""
        request = protocol.make_request(protocol.PS_CHECKMEMBERID,
                                        member_id=member_id)
        replies = yield from self._broadcast(request)
        if self.last_exchange.total_failure:
            return self._degraded()
        for device_id, payload in replies:
            if (protocol.response_status(payload) == protocol.STATUS_OK
                    and payload.get("match")):
                return device_id
        return None
