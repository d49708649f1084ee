"""Bluetooth plugin: L2CAP-style connections, inquiry-based discovery.

"BTPlugin provide L2CAP operation for Bluetooth connectivity in
PeerHood, avoids the overhead caused by the BNEP or RFCOMM and PPP and
it offers ordered and reliable data delivery" (§4.2.3).  The simulated
connection is ordered and reliable by construction; what this plugin
adds is inquiry timing and piconet capacity.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.net.connection import Connection
from repro.net.stack import NetworkStack
from repro.radio.bluetooth import BluetoothAdapter
from repro.radio.medium import Medium
from repro.radio.standards import BLUETOOTH
from repro.peerhood.plugins.base import Plugin
from repro.simenv import Environment


class BTPlugin(Plugin):
    """PeerHood's Bluetooth plugin."""

    technology = BLUETOOTH

    def __init__(self, env: Environment, medium: Medium, stack: NetworkStack,
                 device_id: str) -> None:
        super().__init__(env, medium, stack, device_id)
        self.bt = BluetoothAdapter(
            device_id, env.random.stream(f"bt:{device_id}"))

    def scan_duration(self) -> float:
        """Inquiry time grows with the number of devices that respond
        when the scan starts."""
        responders = self.medium.neighbors(self.device_id,
                                           self.technology.name)
        return self.bt.inquiry_duration(len(responders))

    def connect(self, remote_id: str, port: str) -> Generator:
        """Page the remote device and open an L2CAP-style channel.

        The local device becomes (or already is) master of its piconet;
        the connection occupies one slave slot until closed.  Raises
        :class:`~repro.radio.bluetooth.PiconetFullError` at capacity.
        """
        self.bt.piconet.add_slave(remote_id)
        try:
            connection = yield from self.stack.connect(
                remote_id, port, self.technology, None)
        except BaseException:
            self.bt.piconet.remove_slave(remote_id)
            raise
        connection.on_close = self._release_slot
        return connection

    def _release_slot(self, connection: Connection) -> None:
        """Close hook of a paged link: its slave slot is free again."""
        self.bt.piconet.remove_slave(connection.remote_id)
