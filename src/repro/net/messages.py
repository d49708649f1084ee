"""Deterministic message serialisation.

Payloads are JSON-serialisable dicts encoded with sorted keys and no
whitespace, so a given payload always produces the same byte count —
and therefore the same simulated transfer time.  A four-byte big-endian
length prefix frames each message, mirroring the buffer-packaging the
paper's server does before transmitting ("packages the desired
information into buffers", §5.2.3.1).

Encoding reuses one pre-configured :class:`json.JSONEncoder` instead of
going through :func:`json.dumps` — ``dumps`` with non-default options
builds a fresh encoder per call, which profiling showed as measurable
overhead on the per-message hot path.
"""

from __future__ import annotations

import json
import struct
from typing import Any

_LENGTH = struct.Struct(">I")

#: Shared canonical encoder: sorted keys, no whitespace (stable bytes).
#: ``ensure_ascii`` (the default) matters beyond canonicalisation: the
#: encoded text is pure ASCII, so its length *is* its UTF-8 byte count
#: and :func:`wire_copy` never has to materialise the bytes.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Shared decoder: ``json.loads`` re-dispatches (and, for bytes input,
#: sniffs the encoding) on every call.
_DECODER = json.JSONDecoder()

#: Refuse absurd frames; the reference app moves profiles and file
#: lists, not gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class FrameError(ValueError):
    """Raised for malformed or oversized frames."""


def _encode_text(payload: Any) -> str:
    """Canonical body text of one frame, checked for both frame errors.

    Canonical frames are pure ASCII (``ensure_ascii``), so the text
    length *is* the body byte count.
    """
    try:
        text = _ENCODER.encode(payload)
    except (TypeError, ValueError) as exc:
        raise FrameError(f"payload not serialisable: {exc}") from exc
    if len(text) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(text)} bytes exceeds {MAX_FRAME_BYTES}")
    return text


def serialize(payload: Any) -> bytes:
    """Encode ``payload`` as a length-prefixed canonical-JSON frame."""
    text = _encode_text(payload)
    return _LENGTH.pack(len(text)) + text.encode()


def deserialize(frame: bytes | bytearray) -> Any:
    """Decode a frame produced by :func:`serialize`."""
    if len(frame) < _LENGTH.size:
        raise FrameError(f"frame too short: {len(frame)} bytes")
    (length,) = _LENGTH.unpack_from(frame)
    if len(frame) - _LENGTH.size != length:
        raise FrameError(f"length prefix says {length}, "
                         f"body is {len(frame) - _LENGTH.size}")
    try:
        # Decode straight off a view: no body-slice copy per message.
        return _DECODER.decode(str(memoryview(frame)[_LENGTH.size:], "utf-8"))
    except UnicodeDecodeError:
        # Non-UTF-8 body: canonical frames are ASCII, so only corrupt
        # or foreign input lands here.  Fall back to ``json.loads``,
        # whose bytes path sniffs UTF-16/32 BOMs, to keep the historic
        # accept/reject behaviour exactly.
        try:
            return json.loads(bytes(frame[_LENGTH.size:]))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FrameError(f"frame body not valid JSON: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FrameError(f"frame body not valid JSON: {exc}") from exc


def frame_size(payload: Any) -> int:
    """Bytes the payload occupies on the wire (prefix included).

    Raises :class:`FrameError` exactly where :func:`serialize` would,
    so a sender that measures once (a broadcast) can hand the count to
    every :func:`wire_copy` of the same payload.
    """
    return _LENGTH.size + len(_encode_text(payload))


class _NotPlainJson(Exception):
    """Internal: payload contains something whose JSON round-trip is
    not a plain structural copy (tuple, non-str dict key, custom type)."""


def _copy_json(value: Any) -> Any:
    """Structural deep copy equal to ``decode(encode(value))``.

    Only exact built-in JSON types qualify — a tuple decodes to a list,
    an int-keyed dict to str keys, an IntEnum to a bare int — so
    anything else raises :class:`_NotPlainJson` and the caller falls
    back to a real decode.  Scalars are immutable and shared as-is.
    """
    kind = type(value)
    if kind is dict:
        copy = {}
        for key, item in value.items():
            if type(key) is not str:
                raise _NotPlainJson
            copy[key] = _copy_json(item)
        return copy
    if kind is list:
        return [_copy_json(item) for item in value]
    if kind is str or kind is int or kind is float or kind is bool \
            or value is None:
        return value
    raise _NotPlainJson


def wire_copy(payload: Any, nbytes: int | None = None) -> tuple[int, Any]:
    """``(wire bytes incl. prefix, deep copy)`` for one message.

    The simulated :class:`~repro.net.connection.Connection` needs both
    the frame size (transfer time, adapter accounting) and a decoupled
    copy of the payload for the receiver (mutations on one side must
    not leak to the other, exactly as over a real socket).  The encode
    still runs — the byte count must match :func:`serialize` exactly or
    simulated transfer times drift — unless the caller already measured
    the payload with :func:`frame_size` and passes that count as
    ``nbytes``.  The receiver's copy is built structurally, skipping the
    JSON parse on the per-message hot path; payloads that JSON would
    coerce (tuples, non-str keys) take the round-trip fallback so the
    copy always equals ``decode(encode())``.
    """
    text: str | None = None
    if nbytes is None:
        text = _encode_text(payload)
        nbytes = _LENGTH.size + len(text)
    try:
        copy = _copy_json(payload)
    except _NotPlainJson:
        copy = _DECODER.decode(_ENCODER.encode(payload) if text is None
                               else text)
    return nbytes, copy
