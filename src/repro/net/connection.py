"""Simulated duplex connections.

A :class:`Connection` object exists *per endpoint*: opening a link
creates two halves wired to each other.  Sending serialises the
payload, charges the sender's adapter, and schedules delivery into the
peer half's inbox after the technology's transfer time (plus the
gateway hop for relayed technologies).

Reachability is re-checked at every send, so a device walking out of
Bluetooth range breaks the connection at the next message — which is
what PeerHood's seamless-connectivity logic reacts to.

A crowd holds thousands of pooled links that sit open and idle, so a
half costs what it carries: the inbox is created by the first payload
that finds no receiver waiting and dropped once drained, and a closed
pair unlinks itself so reference counting frees it (DESIGN §10).  A
server half answers in the delivery event itself: its ``on_payload``
handler takes each payload, so no process is parked on its receive.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from functools import partial
from typing import TYPE_CHECKING, Any

from repro.net.messages import wire_copy
from repro.net.transport import ConnectionClosedError
from repro.radio.medium import Medium, NotReachableError
from repro.radio.technology import Technology
from repro.simenv import Environment, Signal, WaitSignal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.stack import NetworkStack
    from repro.radio.gprs import GprsGateway

__all__ = ["Connection", "ConnectionClosedError"]


class _Answerer:
    """The name a failed ``on_payload`` handler is reported under."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Connection:
    """One endpoint of a simulated duplex link.

    ``on_close(half)`` runs once, when this half closes, whichever half
    initiated the close; the BT plugin releases its piconet slot there.
    ``on_payload(half, payload)``, when set, takes every inbound payload
    in its delivery event instead of ``recv``: servers that answer
    without waiting on simulated time set it to a method bound once, so
    an idle link holds no object made for it (DESIGN §10).
    """

    __slots__ = ("env", "medium", "local_id", "remote_id", "technology",
                 "gateway", "peer", "owner", "on_close", "on_payload",
                 "closed", "bytes_sent", "messages_sent", "retransmissions",
                 "_busy_until", "_inbox", "_recv_waiters")

    def __init__(self, env: Environment, medium: Medium,
                 local_id: str, remote_id: str, technology: Technology,
                 gateway: GprsGateway | None = None) -> None:
        self.env = env
        self.medium = medium
        self.local_id = local_id
        self.remote_id = remote_id
        self.technology = technology
        self.gateway = gateway
        self.peer: Connection | None = None  # wired by NetworkStack
        self.owner: NetworkStack | None = None  # wired by NetworkStack
        self.on_close: Callable[[Connection], None] | None = None
        self.on_payload: Callable[[Connection, Any], None] | None = None
        self.closed = False
        self.bytes_sent = 0
        self.messages_sent = 0
        self.retransmissions = 0
        self._busy_until = 0.0  # sender-side FIFO serialisation
        #: Payloads no receiver was waiting for, oldest first; ``None``
        #: while there are none.
        self._inbox: deque[Any] | None = None
        #: Receivers waiting for a payload, oldest first.
        self._recv_waiters: list[Signal] = []

    # -- sending -------------------------------------------------------------

    def send(self, payload: Any, nbytes: int | None = None) -> float:
        """Transmit ``payload`` to the peer.

        ``nbytes`` is the payload's :func:`~repro.net.messages.frame_size`
        when the caller already measured it (a broadcast sends one
        request to many peers); the frame is then not encoded again.

        Returns the simulated seconds the transfer will take.  Raises
        :class:`ConnectionClosedError` on a closed connection and
        :class:`NotReachableError` when the link has physically broken
        (peer out of range, adapter gone) — in which case both halves
        are marked closed.
        """
        if self.closed or self.peer is None:
            raise ConnectionClosedError(
                f"send on closed connection {self.local_id}->{self.remote_id}")
        if not self.medium.reachable(self.local_id, self.remote_id,
                                     self.technology.name):
            self._break()
            raise NotReachableError(
                f"link {self.local_id}->{self.remote_id} over "
                f"{self.technology.name} is down")
        faults = self.medium.faults
        fault = faults.on_send(self) if faults is not None else None
        if faults is not None and fault is not None and fault.drop:
            if fault.flap_device is not None:
                faults.flap(fault.flap_device)
            faults.note_drop()
            self._break()
            raise NotReachableError(
                f"link {self.local_id}->{self.remote_id} over "
                f"{self.technology.name} dropped mid-stream (injected)")
        # The frame's byte count prices the transfer; the peer gets a
        # decoupled copy (as a real socket would).
        nbytes, decoded = wire_copy(payload, nbytes)
        technology = self.technology
        attempts = (1 if technology.frame_loss_rate <= 0.0
                    else self._transmission_attempts())
        transfer = technology.transfer_time(nbytes) * attempts
        if technology.needs_gateway and self.gateway is not None:
            transfer += self.gateway.relay_time(nbytes)
        if faults is not None and fault is not None \
                and fault.latency_factor != 1.0:
            faults.note_spike()
            transfer *= fault.latency_factor
        self.retransmissions += attempts - 1
        self.medium.record_transfer(self.local_id, technology.name, nbytes)
        self.bytes_sent += nbytes
        self.messages_sent += 1
        if faults is not None and fault is not None and fault.corrupt:
            decoded = faults.corrupt_payload(decoded)
        # Ordered delivery (the L2CAP contract): a frame cannot start
        # transmitting before the previous frame finished, so messages
        # on one connection never reorder regardless of size.
        env = self.env
        now = env.clock.now
        start = self._busy_until
        if now > start:
            start = now
        arrival = start + transfer
        self._busy_until = arrival
        env.queue.push(arrival, partial(self.peer._deliver, decoded))
        return arrival - now

    def _transmission_attempts(self, cap: int = 8) -> int:
        """How many link-layer attempts this frame needs.

        Reliable delivery is the service contract (the BTPlugin's
        L2CAP "offers ordered and reliable data delivery"), so loss
        never surfaces as corruption — only as retransmission latency.
        Draws come from a per-technology named stream, keeping lossy
        runs fully reproducible.
        """
        loss = self.technology.frame_loss_rate
        if loss <= 0.0:
            return 1
        rng = self.env.random.stream(f"loss:{self.technology.name}")
        attempts = 1
        while attempts < cap and rng.random() < loss:
            attempts += 1
        return attempts

    # -- receiving ------------------------------------------------------------

    def recv(self) -> WaitSignal:
        """Yieldable that resumes with the next inbound payload.

        Usage inside a process::

            payload = yield connection.recv()
        """
        # A constant name: the f-string alternative shows up in kernel
        # profiles, and recv signals are anonymous one-shots anyway.
        signal = Signal("recv")
        inbox = self._inbox
        if inbox:
            signal.fire(inbox.popleft())
            if not inbox:
                self._inbox = None
        elif self.closed:
            raise ConnectionClosedError(
                f"recv on closed connection {self.local_id}<-{self.remote_id}")
        else:
            self._recv_waiters.append(signal)
        return WaitSignal(signal)

    def pending(self) -> int:
        """Number of undelivered inbound payloads queued locally."""
        inbox = self._inbox
        return 0 if inbox is None else len(inbox)

    def answer_failed(self, name: str, exception: Exception) -> None:
        """Stop answering after ``on_payload`` raised ``exception``.

        The half stays open and queues later payloads unread, and
        :meth:`Environment.run` raises ``SimulationError`` naming
        ``name`` once the delivery event is done, as it would for a
        failed serving process of that name.
        """
        self.on_payload = None
        self.env.note_failure(_Answerer(name), exception)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close both halves of the connection."""
        if self.closed:
            return
        self.closed = True
        if self.on_close is not None:
            self.on_close(self)
        if self.owner is not None:
            self.owner._forget(self)
        peer = self.peer
        if peer is not None:
            if peer.closed:
                # Both halves are closed now: unlink them, so that
                # reference counting frees the pair.
                self.peer = peer.peer = None
            else:
                peer.close()
        self._flush_waiters_with_error()

    def migrate(self, technology: Technology,
                gateway: GprsGateway | None = None) -> None:
        """Switch the link to another technology (seamless handover).

        Both halves move together; subsequent transfer times and
        reachability checks use the new technology.  The caller (the
        seamless-connectivity manager) is responsible for charging the
        new technology's setup time.
        """
        self.technology = technology
        self.gateway = gateway
        if self.peer is not None and self.peer.technology is not technology:
            self.peer.migrate(technology, gateway)

    # -- internals ------------------------------------------------------------

    def _deliver(self, payload: Any) -> None:
        if self.closed:
            return
        on_payload = self.on_payload
        if on_payload is not None:
            on_payload(self, payload)
        elif self._recv_waiters:
            self._recv_waiters.pop(0).fire(payload)
        elif self._inbox is None:
            self._inbox = deque((payload,))
        else:
            self._inbox.append(payload)

    def _break(self) -> None:
        """Physical link loss: close both halves."""
        self.close()

    def _flush_waiters_with_error(self) -> None:
        # Pending receivers resume with None; protocol layers treat a
        # None payload as connection loss.
        while self._recv_waiters:
            self._recv_waiters.pop(0).fire(None)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (f"Connection({self.local_id}->{self.remote_id} "
                f"over {self.technology.name}, {state})")
