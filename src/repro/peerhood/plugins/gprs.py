"""GPRS plugin: discovery and connections through the operator proxy.

"GPRSPlugin also operates over IP connections and uses proxy device as
a bridge or an intermediate device" (§4.2.3).  Discovery is a registry
lookup at the gateway, and every connection's traffic is relayed (and
billed) by the :class:`~repro.radio.gprs.GprsGateway`.
"""

from __future__ import annotations

from repro.net.stack import NetworkStack
from repro.radio.gprs import GprsGateway
from repro.radio.medium import Medium
from repro.radio.standards import GPRS
from repro.peerhood.plugins.base import Plugin
from repro.simenv import Environment


class GPRSPlugin(Plugin):
    """PeerHood's GPRS plugin."""

    technology = GPRS

    def __init__(self, env: Environment, medium: Medium, stack: NetworkStack,
                 device_id: str, gateway: GprsGateway) -> None:
        super().__init__(env, medium, stack, device_id)
        self._gateway = gateway
        gateway.register(device_id)

    def gateway(self) -> GprsGateway:
        """The operator gateway relaying this plugin's traffic."""
        return self._gateway

    def end_scan(self) -> list[str]:
        """Query the proxy's registry instead of scanning the air."""
        visible = self._gateway.lookup(self.device_id)
        # The medium still arbitrates (adapters may be disabled).
        return [device_id for device_id in visible
                if self.medium.reachable(self.device_id, device_id,
                                         self.technology.name)]
