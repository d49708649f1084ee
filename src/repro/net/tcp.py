"""Asyncio TCP backend: the PS_* protocol over real OS sockets.

The simulated backend models *time*; this backend moves the very same
canonical frames (:func:`repro.net.messages.serialize`) over localhost
or LAN TCP.  ``tests/conformance`` drives identical PS_* exchanges
through both and asserts the captured wire bytes match frame-for-frame
— which is what keeps the simulator honest about the protocol it
claims to model.

Pieces:

* :class:`TcpConnection` — the client-side endpoint.  ``await
  send(payload)`` writes one frame; ``await recv()`` returns the next
  payload, ``None`` on clean EOF (matching the simulated backend's
  "pending receivers resume with ``None``" contract), and raises
  :class:`~repro.net.framing.TruncatedFrameError` on a mid-frame
  disconnect.
* :func:`dial` — open a connection, mapping ``ConnectionRefusedError``
  onto the stack's :class:`~repro.net.transport.NoListenerError` so
  "nobody is listening" looks the same on both backends.
* :class:`TcpServer` — a small accept loop running one
  request/response pump per client over a user-supplied synchronous
  handler (typically
  :meth:`repro.community.server.CommunityService.handle_request`).
  Malformed frames poison the stream (length-prefixed framing cannot
  resynchronise), so the server counts the error and drops that client
  — mirroring how the simulated server treats transport-level garbage.

Nothing here reads a wall clock; callers that want wall-clock
timestamps (e.g. ``scripts/serve_tcp.py``) inject a clock from outside
the simulated path.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from collections.abc import Callable
from typing import Any

from repro.net.framing import Frame, FrameDecoder
from repro.net.messages import FrameError, serialize
from repro.net.transport import ConnectionClosedError, NoListenerError

#: Read granularity; small enough to exercise the incremental decoder,
#: large enough not to syscall per byte.
_READ_CHUNK = 65536

#: Observer of raw wire bytes: ``(direction, frame_bytes)`` with
#: direction ``"send"`` or ``"recv"``.  Conformance tests install one
#: to capture transcripts.
FrameTap = Callable[[str, bytes], None]

#: Synchronous request handler: ``(payload, remote_id) -> response``.
RequestHandler = Callable[[Any, str], Any]


def _endpoint_name(peer: Any) -> str:
    """Opaque endpoint label from a socket address tuple."""
    if isinstance(peer, tuple) and len(peer) >= 2:
        return f"{peer[0]}:{peer[1]}"
    return str(peer)


class TcpConnection:
    """One endpoint of a TCP link speaking length-prefixed frames."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *,
                 on_frame: FrameTap | None = None) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder()
        self._inbox: deque[Frame] = deque()
        self._on_frame = on_frame
        self._eof = False
        self.closed = False
        self.bytes_sent = 0
        self.messages_sent = 0
        self.local_id = _endpoint_name(writer.get_extra_info("sockname"))
        self.remote_id = _endpoint_name(writer.get_extra_info("peername"))

    # -- sending -------------------------------------------------------------

    async def send(self, payload: Any) -> int:
        """Transmit ``payload`` as one frame; returns its byte count.

        Raises :class:`ConnectionClosedError` on a closed connection;
        socket-level failures surface as their native
        ``ConnectionError`` subclasses (reset, broken pipe), which is
        exactly the taxonomy the retry layer keys on.
        """
        if self.closed:
            raise ConnectionClosedError(
                f"send on closed connection {self.local_id}->{self.remote_id}")
        frame = serialize(payload)
        if self._on_frame is not None:
            self._on_frame("send", frame)
        self._writer.write(frame)
        await self._writer.drain()
        self.bytes_sent += len(frame)
        self.messages_sent += 1
        return len(frame)

    # -- receiving ------------------------------------------------------------

    async def recv(self) -> Any:
        """The next inbound payload, or ``None`` once the peer closed.

        Raises:
            TruncatedFrameError: The peer disconnected mid-frame.
            FrameError: The peer sent a malformed frame; the connection
                is unusable afterwards (framing cannot resynchronise).
            ConnectionClosedError: ``recv`` on a locally closed
                connection with nothing buffered.
        """
        frame = await self._recv_frame()
        return None if frame is None else frame.payload

    async def _recv_frame(self) -> Frame | None:
        while not self._inbox:
            if self._eof:
                return None
            if self.closed:
                raise ConnectionClosedError(
                    f"recv on closed connection "
                    f"{self.local_id}<-{self.remote_id}")
            data = await self._reader.read(_READ_CHUNK)
            if not data:
                self._eof = True
                self._decoder.eof()  # raises TruncatedFrameError mid-frame
                return None
            self._inbox.extend(self._decoder.feed(data))
        frame = self._inbox.popleft()
        if self._on_frame is not None:
            self._on_frame("recv", frame.raw)
        return frame

    def pending(self) -> int:
        """Number of decoded-but-unread inbound payloads."""
        return len(self._inbox)

    # -- lifecycle ----------------------------------------------------------

    async def close(self) -> None:
        """Close this endpoint (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self._writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await self._writer.wait_closed()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"TcpConnection({self.local_id}->{self.remote_id}, {state})"


async def dial(host: str, port: int, *,
               on_frame: FrameTap | None = None) -> TcpConnection:
    """Open a TCP connection to a frame-speaking server.

    Raises:
        NoListenerError: Nothing is accepting on ``(host, port)`` —
            the same error a simulated connect raises for a missing
            listener, so backend-agnostic callers need one handler.
    """
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except ConnectionRefusedError as exc:
        raise NoListenerError(
            f"{host}:{port} has no listener: {exc}") from exc
    return TcpConnection(reader, writer, on_frame=on_frame)


class TcpServer:
    """Accept loop serving one request/response pump per client.

    The handler is synchronous and transport-free — it maps one request
    payload to one response payload.  Per-client state (frame decoder,
    writer) lives in the pump, so handlers can be shared across any
    number of concurrent clients.
    """

    def __init__(self, handler: RequestHandler, *,
                 host: str = "127.0.0.1", port: int = 0,
                 on_frame: FrameTap | None = None) -> None:
        self.handler = handler
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.requests_handled = 0
        self.frame_errors = 0
        self._on_frame = on_frame
        self._server: asyncio.Server | None = None
        self._clients: set[asyncio.StreamWriter] = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the real port."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def listening(self) -> bool:
        """Whether the accept loop is up."""
        return self._server is not None and self._server.is_serving()

    def open_connection_count(self) -> int:
        """Number of currently connected clients."""
        return len(self._clients)

    async def stop(self) -> None:
        """Stop accepting, close every client, wait for the pumps."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._clients):
            writer.close()
        while self._clients:
            await asyncio.sleep(0)

    # -- per-client pump -----------------------------------------------------

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        self._clients.add(writer)
        remote_id = _endpoint_name(writer.get_extra_info("peername"))
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    # Clean EOF ends the session; mid-frame EOF is a
                    # framing error worth counting.
                    try:
                        decoder.eof()
                    except FrameError:
                        self.frame_errors += 1
                    return
                try:
                    frames = decoder.feed(data)
                except FrameError:
                    self.frame_errors += 1
                    return  # cannot resynchronise; drop the client
                for frame in frames:
                    if self._on_frame is not None:
                        self._on_frame("recv", frame.raw)
                    reply = serialize(self.handler(frame.payload, remote_id))
                    self.requests_handled += 1
                    if self._on_frame is not None:
                        self._on_frame("send", reply)
                    writer.write(reply)
                await writer.drain()
        except (ConnectionError, OSError):
            return  # peer reset mid-session; nothing to answer
        finally:
            self._clients.discard(writer)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
