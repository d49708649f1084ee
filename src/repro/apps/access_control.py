"""Access control system: PTDs as wireless keys (§4.4).

"PTDs with wireless access control system can be used as keys for
locking or unlocking and provides access to locked resources and
places."  A door is a stationary PeerHood device registering the
``AccessControl`` service; a PTD within Bluetooth range requests an
unlock, the door checks its access list and proximity, opens, and
relocks automatically after a hold time.
"""

from __future__ import annotations

import contextlib
from collections.abc import Generator
from dataclasses import dataclass

from repro.net.connection import Connection
from repro.peerhood.library import PeerHoodLibrary

SERVICE_NAME = "AccessControl"


@dataclass(frozen=True)
class AccessLogEntry:
    """One audit-log line of a door."""

    time: float
    device_id: str
    granted: bool
    reason: str


class AccessControlledDoor:
    """A Bluetooth-controlled door offering the AccessControl service.

    Args:
        library: PeerHood library of the door's embedded device.
        resource: Human-readable name of what the door protects.
        authorized: Device ids allowed to unlock.
        hold_open_s: Seconds the door stays open per grant.
    """

    def __init__(self, library: PeerHoodLibrary, resource: str,
                 authorized: set[str] | None = None,
                 hold_open_s: float = 5.0) -> None:
        self.library = library
        self.resource = resource
        self.authorized: set[str] = set(authorized or ())
        self.hold_open_s = hold_open_s
        self.env = library.daemon.env
        self.is_open = False
        self.log: list[AccessLogEntry] = []
        library.register_service(SERVICE_NAME, {"resource": resource},
                                 self._accept)

    # -- administration -------------------------------------------------------

    def grant(self, device_id: str) -> None:
        """Add a device to the access list."""
        self.authorized.add(device_id)

    def revoke(self, device_id: str) -> None:
        """Remove a device from the access list."""
        self.authorized.discard(device_id)

    # -- request handling -----------------------------------------------------

    def _accept(self, connection: Connection) -> None:
        connection.on_payload = self._answer

    def _answer(self, connection: Connection, request: object) -> None:
        """Answer the link's one unlock request in its delivery event."""
        connection.on_payload = None
        if not isinstance(request, dict) or request.get("op") != "unlock":
            return
        try:
            requester = connection.remote_id
            granted, reason = self._decide(requester)
            self.log.append(AccessLogEntry(self.env.now, requester, granted,
                                           reason))
            if granted:
                self.is_open = True
                self.env.call_in(self.hold_open_s, self._relock)
            with contextlib.suppress(ConnectionError, OSError):
                connection.send({"granted": granted, "reason": reason,
                                 "resource": self.resource})
        except Exception as exc:
            connection.answer_failed(f"door:{self.library.device_id}", exc)

    def _decide(self, requester: str) -> tuple[bool, str]:
        if requester not in self.authorized:
            return False, "not authorized"
        # Proximity double-check: the radio link existing implies
        # range, but a door demands the key be *at* the door, not at
        # the far edge of WLAN coverage.
        quality = self.library.daemon.medium.link_quality(
            self.library.device_id, requester, "bluetooth")
        if quality <= 0.0:
            return False, "key not within Bluetooth proximity"
        return True, "authorized key in proximity"

    def _relock(self) -> None:
        self.is_open = False


class DoorKeyClient:
    """The PTD side: find nearby doors and request access."""

    def __init__(self, library: PeerHoodLibrary) -> None:
        self.library = library

    def nearby_doors(self) -> list[tuple[str, str]]:
        """``(device_id, resource)`` of doors in the neighbourhood."""
        doors = []
        for service in self.library.get_service_listing():
            if service.name == SERVICE_NAME \
                    and service.device_id != self.library.device_id:
                doors.append((service.device_id,
                              service.attribute("resource", "?")))
        return sorted(doors)

    def request_access(self, door_device_id: str) -> Generator:
        """Process generator: ask one door to unlock.

        Returns the door's decision dict
        (``{"granted": bool, "reason": str, "resource": str}``).
        """
        connection = yield from self.library.connect(door_device_id,
                                                     SERVICE_NAME)
        try:
            connection.send({"op": "unlock"})
            reply = yield connection.recv()
        finally:
            connection.close()
        if reply is None:
            raise ConnectionError("door connection lost")
        return reply
