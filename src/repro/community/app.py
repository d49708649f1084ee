"""The PeerHood Community application: one facade per device.

Bundles the pieces the paper's reference implementation runs on every
PTD — the always-on server, the user-driven client, and the dynamic
group discovery engine — behind the menu-level operations of Figure 10
and Table 7.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from repro.community.client import CommunityClient
from repro.community.connections import PeerConnectionPool
from repro.community.discovery import DynamicGroupEngine
from repro.community.filetransfer import FileDownloader
from repro.community.profile import Profile, ProfileStore
from repro.community.semantics import ExactMatcher, SemanticMatcher
from repro.community.server import SERVICE_NAME, CommunityServer
from repro.msc.trace import MscRecorder
from repro.net.retry import Degraded, RetryPolicy, is_degraded
from repro.peerhood.library import PeerHoodLibrary


class CommunityApp:
    """Everything PeerHood Community on a single device.

    Args:
        library: The device's PeerHood library.
        recorder: Optional shared MSC recorder, handed to the server.
        semantic: Use a teachable :class:`SemanticMatcher` instead of
            the paper's default exact matching.
        trust_policy: Server-side policy for inbound trust requests.
        retry_policy: Retry/timeout/backoff policy the client-side
            exchanges run under (``None`` = layer defaults).
    """

    def __init__(self, library: PeerHoodLibrary,
                 recorder: MscRecorder | None = None,
                 *, semantic: bool = False,
                 trust_policy: Callable[[str], bool] | None = None,
                 retry_policy: RetryPolicy | None = None) -> None:
        self.library = library
        self.store = ProfileStore()
        self.pool = PeerConnectionPool(library, SERVICE_NAME)
        matcher = SemanticMatcher() if semantic else ExactMatcher()
        self.server = CommunityServer(library, self.store, recorder,
                                      trust_policy)
        self.client = CommunityClient(library, self.store, self.pool,
                                      retry_policy=retry_policy)
        self.engine = DynamicGroupEngine(library, self.store, self.pool,
                                         matcher)
        self.downloader = FileDownloader(self.store, self.pool,
                                         retry_policy=retry_policy)

    @property
    def device_id(self) -> str:
        """Device this application instance runs on."""
        return self.library.device_id

    @property
    def profile(self) -> Profile | None:
        """The logged-in profile, if any."""
        return self.store.active

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Register the service and hook discovery (server always runs)."""
        self.server.start()
        self.engine.start()

    def stop(self) -> None:
        """Unregister the service and drop connections."""
        self.server.stop()
        self.pool.close_all()

    # -- account management (Table 7: Profiles) -------------------------------

    def create_profile(self, member_id: str, username: str, password: str,
                       full_name: str = "",
                       interests: list[str] | None = None) -> Profile:
        """Create a local profile (Add/Edit Profile)."""
        return self.store.create_profile(member_id, username, password,
                                         full_name, interests)

    def login(self, username: str, password: str) -> Profile:
        """Log in; the member becomes visible to the neighbourhood."""
        profile = self.store.login(username, password)
        self.engine.refresh()
        return profile

    def logout(self) -> None:
        """Log out; remote requests answer ``NO_MEMBERS_YET`` again."""
        self.store.logout()
        self.engine.refresh()

    # -- group operations (Table 7: Dynamic Groups) -----------------------------

    def groups(self) -> list[str]:
        """View all (non-empty) groups known here."""
        return self.engine.group_names()

    def my_groups(self) -> list[str]:
        """Groups the local member is in right now."""
        return self.engine.my_groups()

    def group_members(self, interest: str) -> list[str]:
        """View members of one group."""
        return self.engine.members_of(interest)

    def join_group(self, interest: str) -> None:
        """Manual group join."""
        self.engine.join_group(interest)

    def leave_group(self, interest: str) -> None:
        """Manual group leave."""
        self.engine.leave_group(interest)

    # -- trust (Table 7: Trusted Friends) ------------------------------------

    def accept_trusted(self, member_id: str) -> None:
        """Accept a member as trusted friend (owner-side action)."""
        if self.store.active is None:
            raise PermissionError("no member logged in")
        self.store.active.add_trusted(member_id)

    def remove_trusted(self, member_id: str) -> None:
        """Revoke a trusted friend."""
        if self.store.active is None:
            raise PermissionError("no member logged in")
        self.store.active.remove_trusted(member_id)

    # -- content ---------------------------------------------------------------

    def share_file(self, name: str, size_bytes: int) -> None:
        """Publish a file to trusted friends (Table 7: File Sharing)."""
        if self.store.active is None:
            raise PermissionError("no member logged in")
        self.store.active.share_file(name, size_bytes)

    # -- client operations, re-exported for discoverability ----------------------

    def view_all_members(self) -> Generator:
        """Figure 11 (View All Members)."""
        return self.client.get_online_members()

    def view_interest_list(self) -> Generator:
        """Figure 12."""
        return self.client.get_interest_list()

    def view_member_profile(self, member_id: str) -> Generator:
        """Figure 13 (View Other Members Profile)."""
        return self.client.view_profile(member_id)

    def comment_profile(self, member_id: str, comment: str) -> Generator:
        """Figure 14."""
        return self.client.put_profile_comment(member_id, comment)

    def view_trusted_friends(self, member_id: str) -> Generator:
        """Figure 15."""
        return self.client.view_trusted_friends(member_id)

    def view_shared_content(self, member_id: str) -> Generator:
        """Figure 16."""
        return self.client.view_shared_content(member_id)

    def send_message(self, member_id: str, subject: str, body: str) -> Generator:
        """Figure 17 (Send/Receive Messages)."""
        return self.client.send_message(member_id, subject, body)

    def send_group_message(self, interest: str, subject: str,
                           body: str) -> Generator:
        """Message every current member of one interest group.

        The "interact with each other easily" promise of §3.3, applied
        group-wide: one PS_MSG per member, skipping ourselves.
        Membership is resolved live (local registry merged with a
        ``PS_GETINTERESTEDMEMBERLIST`` broadcast) so that a manually
        joined group — whose interest we do not hold, and which the
        local engine therefore never populated — still reaches the
        members who do hold it.  Returns ``{member_id: status}``.
        """
        active = self.store.active
        if active is None:
            raise PermissionError("no member logged in")
        recipients = set(self.engine.members_of(interest))
        interested = yield from self.client.get_interested_members(interest)
        if not is_degraded(interested):
            recipients.update(member["member_id"] for member in interested)
        recipients.discard(active.member_id)
        outcomes: dict[str, str] = {}
        for member_id in sorted(recipients):
            status = yield from self.client.send_message(member_id, subject,
                                                         body)
            outcomes[member_id] = status
        return outcomes

    def download_file(self, member_id: str, name: str) -> Generator:
        """Fetch one shared file from a trusted friend, chunk by chunk.

        §1: the trusted peer "can view what files the accepting peer
        has shared and use them if needed" — this is the using part.
        Locates the member's device first, then drives the chunked
        download; returns the final
        :class:`~repro.community.filetransfer.TransferProgress`.
        """
        device_id = yield from self.client.check_member_location(member_id)
        if is_degraded(device_id):
            # Location broadcast never completed; hand the typed
            # degraded result to the caller rather than guessing.
            return device_id
        if device_id is None:
            report = self.client.last_exchange
            if report is not None and report.failed:
                # Some peers never answered — the member may well be on
                # one of them, so "not found" is not trustworthy.
                self.client.retry_counters.record_degraded()
                return Degraded(
                    operation=report.operation,
                    reason=f"member {member_id!r} not located; "
                           f"{len(report.failed)} peers unreachable",
                    attempts=report.attempts,
                    failed_peers=report.failed)
            raise LookupError(f"no neighbouring device hosts {member_id!r}")
        progress = yield from self.downloader.download(
            device_id, member_id, name, self.library.daemon.env)
        return progress
