"""Plugin interface shared by BT/WLAN/GPRS plugins."""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING

from repro.net.connection import Connection
from repro.net.stack import NetworkStack
from repro.radio.medium import Medium
from repro.radio.technology import Technology
from repro.simenv import Delay, Environment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.gprs import GprsGateway


class Plugin:
    """Base class for technology plugins.

    A plugin binds one device to one technology and provides:

    * ``begin_scan()`` and ``end_scan()`` — the two halves of one
      discovery scan, ``scan_duration()`` apart; ``discover()`` is the
      process generator that chains them.
    * ``connect(remote_id, port)`` — a process generator returning an
      established :class:`Connection`.

    Subclasses set :attr:`technology` and may override timing.
    """

    technology: Technology

    def __init__(self, env: Environment, medium: Medium, stack: NetworkStack,
                 device_id: str) -> None:
        self.env = env
        self.medium = medium
        self.stack = stack
        self.device_id = device_id
        self.scan_count = 0

    @property
    def name(self) -> str:
        """Technology name this plugin serves."""
        return self.technology.name

    def available(self) -> bool:
        """Whether the local device has a live adapter for the technology."""
        adapter = self.medium.adapter(self.device_id, self.technology.name)
        return adapter is not None and adapter.enabled

    def scan_duration(self) -> float:
        """Seconds one discovery scan started now takes."""
        return self.technology.discovery_time_s

    def gateway(self) -> GprsGateway | None:
        """Gateway used for relayed connections (``None`` for local radios)."""
        return None

    def begin_scan(self) -> float | None:
        """Start one discovery scan and return how long it takes.

        Returns ``None``, and counts no scan, when the local adapter is
        missing or off.
        """
        if not self.available():
            return None
        self.scan_count += 1
        return self.scan_duration()

    def end_scan(self) -> list[str]:
        """Finish a scan: the device ids reachable over this technology.

        Read at the end of the scan, because devices may move during it.
        """
        return self.medium.neighbors(self.device_id, self.technology.name)

    def discover(self) -> Generator:
        """Process generator: one discovery scan.

        Returns the list of device ids currently reachable over this
        plugin's technology, after the scan's virtual-time cost.
        """
        duration = self.begin_scan()
        if duration is None:
            return []
        yield Delay(duration)
        return self.end_scan()

    def connect(self, remote_id: str, port: str) -> Generator:
        """Process generator: connect to ``port`` on ``remote_id``.

        Returns the local :class:`Connection` half.
        """
        connection = yield from self.stack.connect(
            remote_id, port, self.technology, self.gateway())
        return connection
