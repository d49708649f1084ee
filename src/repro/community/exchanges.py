"""Canonical PS_* exchange scripts for transport conformance.

``tests/conformance`` replays each script below through every transport
backend against an identically prepared server and asserts the captured
wire transcripts are byte-identical frame-for-frame.  The scripts are
*data*, not test code, and they live in the source tree on purpose: the
PROTO002 analyzer rule reads this module and fails the build when a
declared PS_* operation is missing from the scripts — a new protocol
operation therefore cannot ship without cross-backend wire coverage.

A script is a sequence of steps against one server device:

* :class:`Send` — transmit one request payload, await the response,
  optionally assert its status;
* :class:`Mutate` — apply a local state change to the *server's*
  profile store between requests (logins, trust grants, interest
  edits — things the paper's UI does off-protocol);
* :class:`Reconnect` — drop the connection and dial a fresh one,
  modelling the churn that makes resume-from-offset matter.

Every exchange runs against a **fresh** :func:`build_server_store`, so
scripts are order-independent and each transcript is a deterministic
function of the script alone.  No response payload embeds timestamps
(``Profile.public_view`` strips them), which is what makes the
byte-identical assertion possible across backends with different
clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

from repro.community import protocol
from repro.community.filetransfer import PS_GETFILECHUNK
from repro.community.profile import ProfileStore

#: The member served by the conformance server.
SERVER_MEMBER = "bob"
#: A second, initially logged-out profile on the same device.
OFFLINE_MEMBER = "dave"
#: The remote member driving every script.
CLIENT_MEMBER = "alice"

#: Chunk size used by the file-transfer script: 60 kB / 24 kB = three
#: chunks, the third short and flagged ``eof``.
CONFORMANCE_CHUNK_BYTES = 24 * 1024

_MIXTAPE_BYTES = 60_000
_NOTES_BYTES = 2_000
_PASSWORD = "pw"


def build_server_store() -> ProfileStore:
    """The server-side profile store every script starts from."""
    store = ProfileStore()
    store.create_profile(SERVER_MEMBER, SERVER_MEMBER, _PASSWORD,
                         full_name="Bob B.",
                         interests=["football", "music"])
    store.create_profile(OFFLINE_MEMBER, OFFLINE_MEMBER, _PASSWORD,
                         full_name="Dave D.")
    profile = store.login(SERVER_MEMBER, _PASSWORD)
    profile.share_file("mixtape.mp3", _MIXTAPE_BYTES)
    profile.share_file("notes.txt", _NOTES_BYTES)
    return store


@dataclass(frozen=True)
class Send:
    """Send one request payload; optionally assert the reply status."""

    request: dict
    expect_status: str | None = None


@dataclass(frozen=True)
class Mutate:
    """Apply a server-side state change between requests."""

    label: str
    apply: Callable[[ProfileStore], None]


@dataclass(frozen=True)
class Reconnect:
    """Drop the connection and dial a fresh one before continuing."""


Step = Send | Mutate | Reconnect


@dataclass(frozen=True)
class Exchange:
    """One named conformance script."""

    name: str
    steps: tuple[Step, ...] = field(default_factory=tuple)


def _trust_client(store: ProfileStore) -> None:
    active = store.active
    assert active is not None
    active.add_trusted(CLIENT_MEMBER)


def _login_offline_member(store: ProfileStore) -> None:
    store.login(OFFLINE_MEMBER, _PASSWORD)


def _add_chess_interest(store: ProfileStore) -> None:
    active = store.active
    assert active is not None
    active.add_interest("chess")


def _remove_chess_interest(store: ProfileStore) -> None:
    active = store.active
    assert active is not None
    active.remove_interest("chess")


def _chunk_request(offset: object) -> dict:
    return protocol.make_request(
        PS_GETFILECHUNK, member_id=SERVER_MEMBER, requester=CLIENT_MEMBER,
        name="mixtape.mp3", offset=offset, length=CONFORMANCE_CHUNK_BYTES)


DISCOVERY_HANDSHAKE = Exchange("discovery_handshake", (
    Send(protocol.make_request(protocol.PS_GETINTERESTLIST),
         expect_status=protocol.STATUS_OK),
    Send(protocol.make_request(protocol.PS_GETONLINEMEMBERLIST),
         expect_status=protocol.STATUS_OK),
    Send(protocol.make_request(protocol.PS_CHECKMEMBERID,
                               member_id=SERVER_MEMBER),
         expect_status=protocol.STATUS_OK),
    Send(protocol.make_request(protocol.PS_CHECKMEMBERID,
                               member_id="zoe"),
         expect_status=protocol.STATUS_OK),
))

PROFILE_EXCHANGE = Exchange("profile_exchange", (
    Send(protocol.make_request(protocol.PS_GETPROFILE,
                               member_id=SERVER_MEMBER,
                               requester=CLIENT_MEMBER),
         expect_status=protocol.STATUS_OK),
    Send(protocol.make_request(protocol.PS_ADDPROFILECOMMENT,
                               member_id=SERVER_MEMBER,
                               requester=CLIENT_MEMBER,
                               comment="nice mixtape"),
         expect_status=protocol.SUCCESSFULLY_WRITTEN),
    # The second fetch proves the comment round-trips through state.
    Send(protocol.make_request(protocol.PS_GETPROFILE,
                               member_id=SERVER_MEMBER,
                               requester=CLIENT_MEMBER),
         expect_status=protocol.STATUS_OK),
    Send(protocol.make_request(protocol.PS_GETTRUSTEDFRIEND,
                               member_id=SERVER_MEMBER),
         expect_status=protocol.STATUS_OK),
    Send(protocol.make_request(protocol.PS_GETPROFILE,
                               member_id="zoe", requester=CLIENT_MEMBER),
         expect_status=protocol.NO_MEMBERS_YET),
))

GROUP_JOIN_LEAVE = Exchange("group_join_leave", (
    Send(protocol.make_request(protocol.PS_GETINTERESTEDMEMBERLIST,
                               interest="football"),
         expect_status=protocol.STATUS_OK),
    Send(protocol.make_request(protocol.PS_GETINTERESTEDMEMBERLIST,
                               interest="chess"),
         expect_status=protocol.STATUS_OK),
    Mutate("bob joins the chess group", _add_chess_interest),
    Send(protocol.make_request(protocol.PS_GETINTERESTEDMEMBERLIST,
                               interest="chess"),
         expect_status=protocol.STATUS_OK),
    Mutate("bob leaves the chess group", _remove_chess_interest),
    Send(protocol.make_request(protocol.PS_GETINTERESTEDMEMBERLIST,
                               interest="chess"),
         expect_status=protocol.STATUS_OK),
))

TRUST_AND_SHARED_CONTENT = Exchange("trust_and_shared_content", (
    Send(protocol.make_request(protocol.PS_CHECKTRUSTED,
                               member_id=SERVER_MEMBER,
                               requester=CLIENT_MEMBER),
         expect_status=protocol.NOT_TRUSTED_YET),
    # Default policy: trust is granted by the owner, never claimed.
    Send(protocol.make_request(protocol.PS_ADDTRUSTED,
                               member_id=SERVER_MEMBER,
                               requester=CLIENT_MEMBER),
         expect_status=protocol.UNSUCCESSFULL),
    Mutate("bob trusts alice", _trust_client),
    Send(protocol.make_request(protocol.PS_CHECKTRUSTED,
                               member_id=SERVER_MEMBER,
                               requester=CLIENT_MEMBER),
         expect_status=protocol.STATUS_OK),
    Send(protocol.make_request(protocol.PS_GETSHAREDCONTENT,
                               member_id=SERVER_MEMBER,
                               requester=CLIENT_MEMBER),
         expect_status=protocol.STATUS_OK),
))

BROWSE_SHARED_CONTENT = Exchange("browse_shared_content", (
    Send(protocol.make_request(protocol.PS_SHAREDCONTENT,
                               requester=CLIENT_MEMBER),
         expect_status=protocol.NOT_TRUSTED_YET),
    Mutate("bob trusts alice", _trust_client),
    Send(protocol.make_request(protocol.PS_SHAREDCONTENT,
                               requester=CLIENT_MEMBER),
         expect_status=protocol.STATUS_OK),
))

FILE_TRANSFER_RESUME = Exchange("file_transfer_resume", (
    Mutate("bob trusts alice", _trust_client),
    Send(_chunk_request(offset=0), expect_status=protocol.STATUS_OK),
    # The link drops mid-download; the downloader re-attaches and
    # resumes from the current offset instead of starting over.
    Reconnect(),
    Send(_chunk_request(offset=CONFORMANCE_CHUNK_BYTES),
         expect_status=protocol.STATUS_OK),
    Send(_chunk_request(offset=2 * CONFORMANCE_CHUNK_BYTES),
         expect_status=protocol.STATUS_OK),
    Send(_chunk_request(offset=-1), expect_status=protocol.UNSUCCESSFULL),
))

OFFLINE_QUEUE_DRAIN = Exchange("offline_queue_drain", (
    Send(protocol.make_request(protocol.PS_MSG,
                               receiver=OFFLINE_MEMBER,
                               sender=CLIENT_MEMBER,
                               subject="ping", body="are you there?"),
         expect_status=protocol.NO_MEMBERS_YET),
    Mutate("dave comes online", _login_offline_member),
    # The queued message is re-sent once the member is reachable.
    Send(protocol.make_request(protocol.PS_MSG,
                               receiver=OFFLINE_MEMBER,
                               sender=CLIENT_MEMBER,
                               subject="ping", body="are you there?"),
         expect_status=protocol.SUCCESSFULLY_WRITTEN),
    Send(protocol.make_request(protocol.PS_MSG,
                               receiver="zoe", sender=CLIENT_MEMBER,
                               subject="ping", body="anyone?"),
         expect_status=protocol.NO_MEMBERS_YET),
))

MALFORMED_REQUESTS = Exchange("malformed_requests", (
    # Raw payloads bypass make_request validation on purpose: the
    # server must answer BAD_REQUEST identically on every backend.
    Send({"op": "PS_BOGUS"}, expect_status=protocol.BAD_REQUEST),
    Send({"no_op": 1}, expect_status=protocol.BAD_REQUEST),
    # Fields present but of the wrong shape (offset not an int); trust
    # is granted first so the request reaches the range parser.
    Mutate("bob trusts alice", _trust_client),
    Send(_chunk_request(offset="x"), expect_status=protocol.BAD_REQUEST),
    # The connection still serves valid requests afterwards.
    Send(protocol.make_request(protocol.PS_GETONLINEMEMBERLIST),
         expect_status=protocol.STATUS_OK),
))

#: Every conformance script, in replay order.
CONFORMANCE_EXCHANGES: tuple[Exchange, ...] = (
    DISCOVERY_HANDSHAKE,
    PROFILE_EXCHANGE,
    GROUP_JOIN_LEAVE,
    TRUST_AND_SHARED_CONTENT,
    BROWSE_SHARED_CONTENT,
    FILE_TRANSFER_RESUME,
    OFFLINE_QUEUE_DRAIN,
    MALFORMED_REQUESTS,
)
