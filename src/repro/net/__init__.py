"""Transports: framed messages over simulated radio or real TCP.

This sits between the carrier and PeerHood.  The *simulated* backend —
:class:`~repro.net.stack.NetworkStack` listeners plus
:class:`~repro.net.connection.Connection` links — moves length-prefixed
frames with latency derived from the technology's bandwidth, plus the
gateway relay hop for GPRS.  The *TCP* backend (:mod:`repro.net.tcp`)
moves byte-identical frames over asyncio sockets; the shared contract
both implement lives in :mod:`repro.net.transport` and is enforced by
``tests/conformance``.

Resilience lives here too: :mod:`repro.net.faults` injects
deterministic link failures (setup failures, mid-stream drops,
corruption, latency spikes, device flaps) and :mod:`repro.net.retry`
provides the retry/timeout/backoff vocabulary the protocol layers use
to survive them.
"""

from repro.net.connection import Connection, ConnectionClosedError
from repro.net.faults import (
    FaultConfig,
    FaultCounters,
    FaultInjector,
    InjectedFaultError,
    SendFault,
)
from repro.net.framing import Frame, FrameDecoder, TruncatedFrameError
from repro.net.messages import FrameError, deserialize, frame_size, serialize
from repro.net.retry import (
    AttemptTimeoutError,
    CorruptReplyError,
    Degraded,
    RetryCounters,
    RetryPolicy,
    is_degraded,
    recv_with_timeout,
)
from repro.net.stack import (
    ListenerExistsError,
    NetworkStack,
    NoListenerError,
    StackRegistry,
)
from repro.net.tcp import TcpConnection, TcpServer, dial
from repro.net.transport import Transport, TransportConnection

__all__ = [
    "AttemptTimeoutError",
    "Connection",
    "ConnectionClosedError",
    "CorruptReplyError",
    "Degraded",
    "FaultConfig",
    "FaultCounters",
    "FaultInjector",
    "Frame",
    "FrameDecoder",
    "FrameError",
    "InjectedFaultError",
    "ListenerExistsError",
    "NetworkStack",
    "NoListenerError",
    "RetryCounters",
    "RetryPolicy",
    "SendFault",
    "StackRegistry",
    "TcpConnection",
    "TcpServer",
    "Transport",
    "TransportConnection",
    "TruncatedFrameError",
    "deserialize",
    "dial",
    "frame_size",
    "is_degraded",
    "recv_with_timeout",
    "serialize",
]
