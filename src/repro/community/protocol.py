"""The PeerHood Community wire protocol.

Table 6 defines the request vocabulary; the MSCs of Figures 11-17 add
two operations the table's prose references (``PS_GETTRUSTEDFRIEND``,
``PS_CHECKTRUSTED``, ``PS_GETSHAREDCONTENT``) and the status strings
(``NO_MEMBERS_YET``, ``NOT_TRUSTED_YET``, ``SUCCESSFULLY_WRITTEN``,
``UNSUCCESSFULL`` — the paper's spelling).

A request is a dict ``{"op": <PS_*>, ...params}``; a response is a
dict ``{"status": <code>, ...data}``.  Helpers here build and validate
both sides so client and server cannot drift apart.
"""

from __future__ import annotations

from typing import Any

# -- operations (Table 6 + MSC figures) ---------------------------------------

PS_GETONLINEMEMBERLIST = "PS_GETONLINEMEMBERLIST"
PS_GETINTERESTLIST = "PS_GETINTERESTLIST"
PS_GETINTERESTEDMEMBERLIST = "PS_GETINTERESTEDMEMBERLIST"
PS_GETPROFILE = "PS_GETPROFILE"
PS_ADDPROFILECOMMENT = "PS_ADDPROFILECOMMENT"
PS_CHECKMEMBERID = "PS_CHECKMEMBERID"
PS_MSG = "PS_MSG"
PS_SHAREDCONTENT = "PS_SHAREDCONTENT"
PS_GETTRUSTEDFRIEND = "PS_GETTRUSTEDFRIEND"
PS_CHECKTRUSTED = "PS_CHECKTRUSTED"
PS_GETSHAREDCONTENT = "PS_GETSHAREDCONTENT"
PS_ADDTRUSTED = "PS_ADDTRUSTED"

#: Every operation and the request fields it requires.
OPERATIONS: dict[str, tuple[str, ...]] = {
    PS_GETONLINEMEMBERLIST: (),
    PS_GETINTERESTLIST: (),
    PS_GETINTERESTEDMEMBERLIST: ("interest",),
    PS_GETPROFILE: ("member_id", "requester"),
    PS_ADDPROFILECOMMENT: ("member_id", "requester", "comment"),
    PS_CHECKMEMBERID: ("member_id",),
    PS_MSG: ("receiver", "sender", "subject", "body"),
    PS_SHAREDCONTENT: ("requester",),
    PS_GETTRUSTEDFRIEND: ("member_id",),
    PS_CHECKTRUSTED: ("member_id", "requester"),
    PS_GETSHAREDCONTENT: ("member_id", "requester"),
    PS_ADDTRUSTED: ("member_id", "requester"),
}

# -- status codes -----------------------------------------------------------

STATUS_OK = "OK"
NO_MEMBERS_YET = "NO_MEMBERS_YET"
NOT_TRUSTED_YET = "NOT_TRUSTED_YET"
SUCCESSFULLY_WRITTEN = "SUCCESSFULLY_WRITTEN"
UNSUCCESSFULL = "UNSUCCESSFULL"  # sic - the paper's spelling (Fig. 17)
BAD_REQUEST = "BAD_REQUEST"

ALL_STATUSES = (STATUS_OK, NO_MEMBERS_YET, NOT_TRUSTED_YET,
                SUCCESSFULLY_WRITTEN, UNSUCCESSFULL, BAD_REQUEST)

#: Precompiled lookup tables for the per-message hot path: validating
#: a request against a frozenset is O(fields) with C-level membership
#: tests, versus rescanning the OPERATIONS tuples on every message.
_REQUIRED_SETS: dict[str, frozenset[str]] = {
    op: frozenset(fields) for op, fields in OPERATIONS.items()
}
_STATUS_SET = frozenset(ALL_STATUSES)


def register_operation(op: str, fields: tuple[str, ...]) -> None:
    """Extend the protocol vocabulary (e.g. the file-chunk op).

    Idempotent for an identical re-registration; conflicting field
    tuples for an existing op raise :class:`ProtocolError`.
    """
    existing = OPERATIONS.get(op)
    if existing is not None and tuple(existing) != tuple(fields):
        raise ProtocolError(f"operation {op!r} already registered "
                            f"with fields {existing}")
    OPERATIONS[op] = tuple(fields)
    _REQUIRED_SETS[op] = frozenset(fields)


class ProtocolError(ValueError):
    """Malformed request or response."""


def make_request(op: str, **params: Any) -> dict:
    """Build a validated request dict for ``op``."""
    required = _REQUIRED_SETS.get(op)
    if required is None:
        raise ProtocolError(f"unknown operation {op!r}")
    if params.keys() != required:
        missing = [name for name in OPERATIONS[op] if name not in params]
        if missing:
            raise ProtocolError(f"{op} missing required fields {missing}")
        extra = sorted(params.keys() - required)
        raise ProtocolError(f"{op} got unexpected fields {extra}")
    return {"op": op, **params}


def parse_request(payload: Any) -> tuple[str, dict]:
    """Validate an inbound request; returns ``(op, params)``."""
    if not isinstance(payload, dict) or "op" not in payload:
        raise ProtocolError(f"not a request: {payload!r}")
    op = payload["op"]
    if not isinstance(op, str):
        raise ProtocolError(f"operation must be a string, got {op!r}")
    required = _REQUIRED_SETS.get(op)
    if required is None:
        raise ProtocolError(f"unknown operation {op!r}")
    params = {key: value for key, value in payload.items() if key != "op"}
    if not required <= params.keys():
        missing = [name for name in OPERATIONS[op] if name not in params]
        raise ProtocolError(f"{op} missing required fields {missing}")
    return op, params


def make_response(status: str, **data: Any) -> dict:
    """Build a response dict with a known status code."""
    if status not in _STATUS_SET:
        raise ProtocolError(f"unknown status {status!r}")
    return {"status": status, **data}


def response_status(payload: Any) -> str:
    """Extract and validate the status of a response payload."""
    if not isinstance(payload, dict) or "status" not in payload:
        raise ProtocolError(f"not a response: {payload!r}")
    status = payload["status"]
    if status not in _STATUS_SET:
        raise ProtocolError(f"unknown status {status!r}")
    return status
