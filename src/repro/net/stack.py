"""Per-device network stack: listeners and outbound connections.

The stack is what PeerHood plugins build on.  A server-side component
listens on a named port (for PeerHood this is the service name, e.g.
``"PeerHoodCommunity"``); a client opens a connection to
``(remote_device, port)`` over a chosen technology, paying that
technology's setup time before the connection becomes usable.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING

from repro.net.connection import Connection
from repro.net.transport import ListenerExistsError, NoListenerError
from repro.radio.medium import Medium, NotReachableError
from repro.radio.technology import Technology
from repro.simenv import Delay, Environment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.gprs import GprsGateway

__all__ = ["ListenerExistsError", "NetworkStack", "NoListenerError",
           "StackRegistry"]


class NetworkStack:
    """Connection factory and listener registry for one device."""

    #: Global port registry shared across stacks of one simulation run,
    #: keyed by (device_id, port).  Stored on the class would leak state
    #: between runs, so it lives on a per-simulation registry object.

    def __init__(self, env: Environment, medium: Medium, device_id: str,
                 registry: StackRegistry) -> None:
        self.env = env
        self.medium = medium
        self.device_id = device_id
        self.registry = registry
        registry._add(device_id, self)
        self._listeners: dict[str, Callable[[Connection], None]] = {}
        #: Live halves in creation order (the values are unused).
        self._open: dict[Connection, None] = {}

    # -- server side -------------------------------------------------------

    def listen(self, port: str, on_connection: Callable[[Connection], None]) -> None:
        """Accept inbound connections on ``port``.

        ``on_connection`` receives the server-side :class:`Connection`
        half whenever a peer connects.
        """
        if port in self._listeners:
            raise ListenerExistsError(f"{self.device_id!r} already listens on {port!r}")
        self._listeners[port] = on_connection

    def unlisten(self, port: str) -> None:
        """Stop accepting connections on ``port``."""
        self._listeners.pop(port, None)

    def listening_on(self, port: str) -> bool:
        """Whether a listener is bound to ``port``."""
        return port in self._listeners

    # -- client side ------------------------------------------------------

    def connect(self, remote_id: str, port: str, technology: Technology,
                gateway: GprsGateway | None = None) -> Generator:
        """Process generator establishing a connection.

        Usage::

            connection = yield from stack.connect("bob", "PeerHoodCommunity", BLUETOOTH)

        Pays the technology's setup time, then re-checks reachability
        (the peer may have moved during setup) and the remote listener.

        Raises:
            NotReachableError: Peer unreachable before or after setup.
            NoListenerError: Nothing listening on the remote port.
        """
        if not self.medium.reachable(self.device_id, remote_id, technology.name):
            raise NotReachableError(
                f"{remote_id!r} unreachable from {self.device_id!r} "
                f"over {technology.name}")
        yield Delay(technology.setup_time_s)
        if not self.medium.reachable(self.device_id, remote_id, technology.name):
            raise NotReachableError(
                f"{remote_id!r} moved out of {technology.name} range during setup")
        if self.medium.faults is not None:
            # May raise InjectedFaultError: setup completed but the
            # link failed before becoming usable.
            self.medium.faults.fail_connect(self.device_id, remote_id,
                                            technology.name)
        remote_stack = self.registry.stack_of(remote_id)
        if remote_stack is None or port not in remote_stack._listeners:
            raise NoListenerError(f"{remote_id!r} has no listener on {port!r}")
        local = Connection(self.env, self.medium, self.device_id, remote_id,
                           technology, gateway)
        remote = Connection(self.env, self.medium, remote_id, self.device_id,
                            technology, gateway)
        local.peer = remote
        remote.peer = local
        local.owner = self
        remote.owner = remote_stack
        self._open[local] = None
        remote_stack._open[remote] = None
        remote_stack._listeners[port](remote)
        return local

    # -- open-connection registry -------------------------------------------

    def open_connections(self, remote_id: str | None = None) -> list[Connection]:
        """Live connection halves owned by this stack, optionally
        restricted to one peer: by peer id, then in creation order."""
        halves = [connection for connection in self._open
                  if remote_id is None or connection.remote_id == remote_id]
        return sorted(halves, key=lambda c: c.remote_id)

    def open_connection_count(self, remote_id: str | None = None) -> int:
        """Number of live halves (to one peer, or in total)."""
        return len(self.open_connections(remote_id))

    def drop_peer(self, remote_id: str) -> int:
        """Close every open connection to ``remote_id``.

        Called when discovery loses a device: closing the halves wakes
        any process blocked in ``recv`` (it resumes with ``None``),
        makes server halves ignore later deliveries and removes the
        registry entries, so an abrupt disconnect cannot leak waiting
        processes or connection state.  Returns the number of
        connections closed.
        """
        stale = self.open_connections(remote_id)
        for connection in stale:
            connection.close()
        return len(stale)

    def _forget(self, connection: Connection) -> None:
        """Deregister a closed connection (called by Connection.close)."""
        self._open.pop(connection, None)


class StackRegistry:
    """Directory of every device's stack within one simulation."""

    def __init__(self) -> None:
        self._stacks: dict[str, NetworkStack] = {}

    def _add(self, device_id: str, stack: NetworkStack) -> None:
        if device_id in self._stacks:
            raise ValueError(f"device {device_id!r} already has a stack")
        self._stacks[device_id] = stack

    def stack_of(self, device_id: str) -> NetworkStack | None:
        """The stack for ``device_id``, or ``None`` if absent."""
        return self._stacks.get(device_id)

    def device_ids(self) -> list[str]:
        """Registered device ids, deterministically ordered."""
        return sorted(self._stacks)

    def close_all(self) -> None:
        """Tear down every stack: close connections, drop listeners.

        Test fixtures call this at teardown so listener and connection
        state can never leak from one test into the next, however the
        test ended.
        """
        for device_id in self.device_ids():
            self.remove(device_id)

    def remove(self, device_id: str) -> None:
        """Drop a device's stack (device left the simulation).

        Closes the stack's open connections first so peers observe the
        departure instead of waiting on a vanished device forever.
        """
        stack = self._stacks.pop(device_id, None)
        if stack is not None:
            for connection in stack.open_connections():
                connection.close()
