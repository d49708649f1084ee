"""Bluetooth protocol behaviour beyond the generic technology model.

Two Bluetooth realities matter to PeerHood and are modelled here:

* **Inquiry timing.**  Discovering nearby devices is slow (seconds, not
  milliseconds) and the time grows mildly with the number of responding
  devices because responses are spread over inquiry trains.  This is
  the dominant term in the paper's 11 s "group search" figure.
* **Piconets.**  A master supports at most seven active slaves
  (§2.4.1); connection attempts beyond that fail until a slave leaves.
"""

from __future__ import annotations

from random import Random

from repro.radio.standards import BLUETOOTH
from repro.radio.technology import Technology


class PiconetFullError(ConnectionError):
    """A Bluetooth master already has seven active slaves."""


class Piconet:
    """Master/slave bookkeeping for one device acting as master.

    A slave holds one slot however many links the master has open to
    it, and keeps it until the last of them closes: each
    :meth:`add_slave` is one link, released by one
    :meth:`remove_slave`.
    """

    MAX_ACTIVE_SLAVES = 7

    def __init__(self, master_id: str) -> None:
        self.master_id = master_id
        #: slave id -> links open to it.
        self._links: dict[str, int] = {}

    @property
    def slaves(self) -> frozenset[str]:
        """Currently connected slave device ids."""
        return frozenset(self._links)

    def add_slave(self, device_id: str) -> None:
        """Open a link to a slave; a new slave raises
        :class:`PiconetFullError` at capacity."""
        if device_id == self.master_id:
            raise ValueError("a device cannot be its own slave")
        links = self._links.get(device_id, 0)
        if not links and len(self._links) >= self.MAX_ACTIVE_SLAVES:
            raise PiconetFullError(
                f"piconet of {self.master_id!r} already has "
                f"{self.MAX_ACTIVE_SLAVES} active slaves")
        self._links[device_id] = links + 1

    def remove_slave(self, device_id: str) -> None:
        """Close a link to a slave (connection closed or device lost);
        its slot frees with the last one."""
        links = self._links.get(device_id, 0)
        if links > 1:
            self._links[device_id] = links - 1
        elif links:
            del self._links[device_id]

    def __len__(self) -> int:
        return len(self._links)


class BluetoothAdapter:
    """Per-device Bluetooth behaviour: inquiry timing and piconet state.

    Args:
        device_id: Owning device.
        rng: Random stream for inquiry response jitter.
        technology: Parameter set; defaults to :data:`BLUETOOTH`.
    """

    def __init__(self, device_id: str, rng: Random,
                 technology: Technology = BLUETOOTH) -> None:
        self.device_id = device_id
        self.technology = technology
        self._rng = rng
        self.piconet = Piconet(device_id)
        #: Set false to make the device undiscoverable (but connectable).
        self.discoverable = True

    def inquiry_duration(self, responders: int) -> float:
        """Seconds one inquiry takes given ``responders`` nearby devices.

        Base scan window plus a small per-responder backoff term with
        jitter: each responding device answers in a random inquiry-scan
        slot, so crowded neighbourhoods take slightly longer to
        enumerate completely.
        """
        if responders < 0:
            raise ValueError(f"responders must be non-negative, got {responders!r}")
        base = self.technology.discovery_time_s
        per_responder = 0.16  # one extra inquiry-train slot each
        jitter = self._rng.uniform(0.0, 0.64)
        return base + responders * per_responder + jitter

    def page_duration(self) -> float:
        """Seconds to page one known device and set up L2CAP."""
        return self.technology.setup_time_s + self._rng.uniform(0.0, 0.2)
