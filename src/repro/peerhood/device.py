"""Data model: devices and services as PeerHood sees them.

These are the records the daemon keeps about the neighbourhood —
"PeerHood monitors the immediate neighbors of a PTD, collects
information and stores it for possible future usage" (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ServiceInfo:
    """A service registered on some (local or remote) device.

    Attributes:
        name: Service name, e.g. ``"PeerHoodCommunity"``.
        device_id: Device the service runs on.
        attributes: Free-form descriptive attributes the registering
            application supplied (the paper's service attributes,
            Table 3 "Service Discovery").
    """

    name: str
    device_id: str
    attributes: tuple[tuple[str, str], ...] = ()

    def attribute(self, key: str, default: str | None = None) -> str | None:
        """Look up one attribute value."""
        for attr_key, attr_value in self.attributes:
            if attr_key == key:
                return attr_value
        return default

    @staticmethod
    def make(name: str, device_id: str,
             attributes: dict[str, str] | None = None) -> ServiceInfo:
        """Build a :class:`ServiceInfo` from a plain dict of attributes."""
        items = tuple(sorted((attributes or {}).items()))
        return ServiceInfo(name=name, device_id=device_id, attributes=items)


@dataclass
class NeighborDevice:
    """What the local daemon currently knows about one remote device.

    Attributes:
        device_id: Remote device identifier.
        technologies: Technology names the device was seen on.
        last_seen: Virtual time of the most recent sighting.
        services: Remote services, populated by service discovery.
        services_fresh: Whether ``services`` reflects a completed query.
    """

    device_id: str
    technologies: set[str] = field(default_factory=set)
    last_seen: float = 0.0
    services: list[ServiceInfo] = field(default_factory=list)
    services_fresh: bool = False
