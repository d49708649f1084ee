"""The PeerHood Community server (§5.2.3.1).

"Every PTD must contain the application server and server must run
continuously.  As the server is started, it registers the service named
'PeerHoodCommunity' into the Peerhood Daemon.  The server always stays
in the listening state for any request from the remote clients."

The request/response core is transport-free: :class:`CommunityService`
maps one request payload to one response payload (the Table 6
dispatch), and any backend calls it once per request frame — the
simulated :class:`CommunityServer` below registers it with the PeerHood
daemon and answers each request in its delivery event, while
:class:`repro.net.tcp.TcpServer` drives the same ``handle_request``
over real sockets.  Keeping the core identical on both paths is what
makes the conformance suite's byte-identical-transcript assertion
meaningful.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.community import protocol
from repro.community.filetransfer import PS_GETFILECHUNK, FileTransferService
from repro.community.profile import MailMessage, Profile, ProfileStore
from repro.msc.trace import MscRecorder
from repro.net.connection import Connection
from repro.peerhood.library import PeerHoodLibrary

#: The service name of Figure 8.
SERVICE_NAME = "PeerHoodCommunity"


class CommunityService:
    """Transport-free request/response core of the community server.

    Args:
        store: The device's profile store; the *active* profile is what
            remote peers see as the online member.
        device_id: Label for this endpoint in traces.
        clock: Source of the timestamps written into profile state
            (visit times, mail ``sent_at``).  ``None`` pins the clock
            to 0.0 — fine for backends with no time model, since no
            response payload ever embeds a timestamp.
        recorder: Optional MSC recorder shared with clients.
        trust_policy: Decides whether a ``PS_ADDTRUSTED`` request from
            a given member is accepted; defaults to rejecting, matching
            the paper where trust is granted by the owner, not claimed
            by the requester.
    """

    def __init__(self, store: ProfileStore, *, device_id: str = "server",
                 clock: Callable[[], float] | None = None,
                 recorder: MscRecorder | None = None,
                 trust_policy: Callable[[str], bool] | None = None) -> None:
        self.store = store
        self.device_id = device_id
        self.recorder = recorder
        self.trust_policy = trust_policy
        self.requests_served = 0
        #: Requests that failed protocol validation (malformed or
        #: corrupted-in-flight frames answered with ``BAD_REQUEST``).
        self.bad_requests = 0
        #: Replies we could not deliver because the link died first.
        self.send_failures = 0
        self.file_service = FileTransferService(store)
        self._clock = clock
        #: MSC participant labels, built once instead of per message.
        self._server_label = f"server:{device_id}"
        self._client_labels: dict[str, str] = {}

    def now(self) -> float:
        """Timestamp for profile-state writes (never sent on the wire)."""
        return 0.0 if self._clock is None else self._clock()

    # -- the request/response pump core --------------------------------------

    def handle_request(self, payload: Any, remote_id: str = "?") -> dict:
        """Map one request payload to one response payload.

        Every transport backend funnels through here, so the counter
        semantics are identical everywhere: a payload that fails
        protocol validation counts as a bad request only; a request
        whose handler rejects its parameter *values* counts as both
        served and bad; a remote peer can never crash the pump.
        """
        self._trace_in(remote_id, payload)
        try:
            op, params = protocol.parse_request(payload)
        except protocol.ProtocolError:
            self.bad_requests += 1
            response = protocol.make_response(protocol.BAD_REQUEST)
        else:
            try:
                response = self._dispatch(op, params)
            except (TypeError, ValueError, KeyError):
                # Required fields present but of the wrong shape
                # (e.g. a list where a string belongs).  A remote
                # peer must never be able to crash the server.
                self.bad_requests += 1
                response = protocol.make_response(protocol.BAD_REQUEST)
            self.requests_served += 1
        self._trace_out(remote_id, response)
        return response

    # -- dispatch (Table 6) -------------------------------------------------------

    def _dispatch(self, op: str, params: dict) -> dict:
        return self._HANDLERS[op](self, params)

    def _active_or_none(self) -> Profile | None:
        return self.store.active

    def _handle_online_members(self, params: dict) -> dict:
        """Identify the online member and transmit it (Table 6 row 1)."""
        active = self._active_or_none()
        if active is None:
            return protocol.make_response(protocol.NO_MEMBERS_YET)
        return protocol.make_response(
            protocol.STATUS_OK,
            members=[{"member_id": active.member_id,
                      "full_name": active.full_name}])

    def _handle_interest_list(self, params: dict) -> dict:
        """Transmit the local member's interests (Table 6 row 2)."""
        active = self._active_or_none()
        if active is None:
            return protocol.make_response(protocol.NO_MEMBERS_YET)
        return protocol.make_response(
            protocol.STATUS_OK,
            member_id=active.member_id,
            interests=active.interests.as_list())

    def _handle_interested_members(self, params: dict) -> dict:
        """Members here sharing the given interest (Table 6 row 3)."""
        active = self._active_or_none()
        if active is None:
            return protocol.make_response(protocol.NO_MEMBERS_YET)
        interest = params["interest"]
        if not isinstance(interest, str):
            raise TypeError(f"interest must be a string, got {interest!r}")
        members = []
        if interest in active.interests:
            members.append({"member_id": active.member_id,
                            "full_name": active.full_name})
        return protocol.make_response(protocol.STATUS_OK, members=members)

    def _handle_get_profile(self, params: dict) -> dict:
        """Transmit the local profile; record the visitor (Figure 13)."""
        active = self._active_or_none()
        if active is None or active.member_id != params["member_id"]:
            return protocol.make_response(protocol.NO_MEMBERS_YET)
        active.record_view(params["requester"], self.now())
        if self.recorder is not None:
            self.recorder.action(self.now(), self._server_label,
                                 "writes profile visitor")
        view = active.public_view()
        view["trusted"] = sorted(active.trusted)
        return protocol.make_response(protocol.STATUS_OK, profile=view)

    def _handle_add_comment(self, params: dict) -> dict:
        """Append a remote comment to the local profile (Figure 14)."""
        active = self._active_or_none()
        if active is None or active.member_id != params["member_id"]:
            return protocol.make_response(protocol.NO_MEMBERS_YET)
        active.record_comment(params["requester"], params["comment"],
                              self.now())
        if self.recorder is not None:
            self.recorder.action(self.now(), self._server_label,
                                 "writes comment to profile file")
        return protocol.make_response(protocol.SUCCESSFULLY_WRITTEN)

    def _handle_check_member_id(self, params: dict) -> dict:
        """Compare a member id with the local one (Table 6 row 6)."""
        active = self._active_or_none()
        if active is None:
            return protocol.make_response(protocol.NO_MEMBERS_YET)
        return protocol.make_response(
            protocol.STATUS_OK,
            match=active.member_id == params["member_id"])

    def _handle_message(self, params: dict) -> dict:
        """Write an inbound mail message to the inbox (Figure 17).

        A device that does not host the receiver answers
        ``NO_MEMBERS_YET`` like every member-targeted operation;
        ``UNSUCCESSFULL`` is reserved for a failed write on the right
        device (Figure 17's error arrow).
        """
        active = self._active_or_none()
        if active is None or active.member_id != params["receiver"]:
            return protocol.make_response(protocol.NO_MEMBERS_YET)
        active.deliver_mail(MailMessage(
            sender=params["sender"], receiver=params["receiver"],
            subject=params["subject"], body=params["body"],
            sent_at=self.now()))
        if self.recorder is not None:
            self.recorder.action(self.now(), self._server_label,
                                 "writes mail to inbox file")
        return protocol.make_response(protocol.SUCCESSFULLY_WRITTEN)

    def _handle_shared_content(self, params: dict) -> dict:
        """List local shared content for a trusted requester."""
        active = self._active_or_none()
        if active is None:
            return protocol.make_response(protocol.NO_MEMBERS_YET)
        if not active.trusts(params["requester"]):
            return protocol.make_response(protocol.NOT_TRUSTED_YET)
        return protocol.make_response(
            protocol.STATUS_OK,
            files=[{"name": shared.name, "size": shared.size_bytes}
                   for shared in active.shared_files.values()])

    def _handle_trusted_friends(self, params: dict) -> dict:
        """Send the member's trusted-friend list (Figure 15)."""
        active = self._active_or_none()
        if active is None or active.member_id != params["member_id"]:
            return protocol.make_response(protocol.NO_MEMBERS_YET)
        return protocol.make_response(protocol.STATUS_OK,
                                      trusted=sorted(active.trusted))

    def _handle_check_trusted(self, params: dict) -> dict:
        """First phase of Figure 16: is the requester trusted?"""
        active = self._active_or_none()
        if active is None or active.member_id != params["member_id"]:
            return protocol.make_response(protocol.NO_MEMBERS_YET)
        if not active.trusts(params["requester"]):
            return protocol.make_response(protocol.NOT_TRUSTED_YET)
        return protocol.make_response(protocol.STATUS_OK, trusted=True)

    def _handle_get_shared_content(self, params: dict) -> dict:
        """Second phase of Figure 16: the shared-content list."""
        active = self._active_or_none()
        if active is None or active.member_id != params["member_id"]:
            return protocol.make_response(protocol.NO_MEMBERS_YET)
        if not active.trusts(params["requester"]):
            return protocol.make_response(protocol.NOT_TRUSTED_YET)
        return protocol.make_response(
            protocol.STATUS_OK,
            files=[{"name": shared.name, "size": shared.size_bytes}
                   for shared in active.shared_files.values()])

    def _handle_add_trusted(self, params: dict) -> dict:
        """A remote member asks to be trusted; policy decides."""
        active = self._active_or_none()
        if active is None or active.member_id != params["member_id"]:
            return protocol.make_response(protocol.NO_MEMBERS_YET)
        requester = params["requester"]
        if self.trust_policy is not None and self.trust_policy(requester):
            active.add_trusted(requester)
            return protocol.make_response(protocol.SUCCESSFULLY_WRITTEN)
        return protocol.make_response(protocol.UNSUCCESSFULL)

    def _handle_file_chunk(self, params: dict) -> dict:
        """One chunk of a shared file (the bulk-transfer extension)."""
        return self.file_service.handle_chunk_request(params)

    #: Operation -> handler, built once with the class.
    _HANDLERS: dict[str, Callable[[CommunityService, dict], dict]] = {
        protocol.PS_GETONLINEMEMBERLIST: _handle_online_members,
        protocol.PS_GETINTERESTLIST: _handle_interest_list,
        protocol.PS_GETINTERESTEDMEMBERLIST: _handle_interested_members,
        protocol.PS_GETPROFILE: _handle_get_profile,
        protocol.PS_ADDPROFILECOMMENT: _handle_add_comment,
        protocol.PS_CHECKMEMBERID: _handle_check_member_id,
        protocol.PS_MSG: _handle_message,
        protocol.PS_SHAREDCONTENT: _handle_shared_content,
        protocol.PS_GETTRUSTEDFRIEND: _handle_trusted_friends,
        protocol.PS_CHECKTRUSTED: _handle_check_trusted,
        protocol.PS_GETSHAREDCONTENT: _handle_get_shared_content,
        protocol.PS_ADDTRUSTED: _handle_add_trusted,
        PS_GETFILECHUNK: _handle_file_chunk,
    }

    # -- tracing -------------------------------------------------------------

    def _client_label(self, remote_id: str) -> str:
        label = self._client_labels.get(remote_id)
        if label is None:
            label = self._client_labels[remote_id] = f"client:{remote_id}"
        return label

    def _trace_in(self, remote_id: str, payload: Any) -> None:
        if self.recorder is not None and isinstance(payload, dict):
            self.recorder.message(self.now(),
                                  self._client_label(remote_id),
                                  self._server_label,
                                  str(payload.get("op", "?")))

    def _trace_out(self, remote_id: str, response: dict) -> None:
        if self.recorder is not None:
            self.recorder.message(self.now(),
                                  self._server_label,
                                  self._client_label(remote_id),
                                  str(response.get("status", "?")))


class CommunityServer(CommunityService):
    """The simulated-backend server: :class:`CommunityService` wired to
    the PeerHood daemon, answering each request on a simulated
    connection in the event that delivers it.

    Args:
        library: PeerHood library of the local device.
        store: The device's profile store.
        recorder: Optional MSC recorder shared with clients.
        trust_policy: See :class:`CommunityService`.
    """

    def __init__(self, library: PeerHoodLibrary, store: ProfileStore,
                 recorder: MscRecorder | None = None,
                 trust_policy: Callable[[str], bool] | None = None) -> None:
        super().__init__(store, device_id=library.device_id,
                         recorder=recorder, trust_policy=trust_policy)
        self.library = library
        self.env = library.daemon.env
        self._started = False
        #: Bound once per start: every inbound half holds it.  A stopped
        #: server accepts no link, so it drops the handler, and with it
        #: a cycle.
        self._answer_bound: Callable[[Connection, Any], None] | None = None

    def now(self) -> float:
        """Simulated seconds; feeds profile-state writes and traces."""
        return self.env.now

    def start(self) -> None:
        """Register the service into the PHD (Figure 8)."""
        if self._started:
            return
        self.library.register_service(
            SERVICE_NAME,
            {"type": "social-networking", "version": "0.2"},
            self._accept)
        self._answer_bound = self._answer
        self._started = True

    def stop(self) -> None:
        """Unregister the service; existing connections die naturally."""
        if self._started:
            self.library.unregister_service(SERVICE_NAME)
            self._started = False
            self._answer_bound = None

    # -- connection handling ------------------------------------------------

    def _accept(self, connection: Connection) -> None:
        connection.on_payload = self._answer_bound

    def _answer(self, connection: Connection, payload: Any) -> None:
        """Answer one request in its delivery event; the half keeps
        answering until a reply cannot be sent."""
        if payload is None:  # every receiver reads None as link loss
            connection.on_payload = None
            return
        try:
            response = self.handle_request(payload, connection.remote_id)
            try:
                connection.send(response)
            except (ConnectionError, OSError):
                # The client's retry loop re-sends on a fresh
                # connection; the dead one is already deregistered.
                connection.on_payload = None
                self.send_failures += 1
        except Exception as exc:
            connection.answer_failed(
                f"phc-server:{self.device_id}<-{connection.remote_id}", exc)
