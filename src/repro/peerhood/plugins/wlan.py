"""WLAN plugin: broadcast discovery over direct IP connections.

"WLANPlugin operates over IP connections and uses broadcast-based
service discovery.  It offers direct connection between communicating
devices without any intermediate devices or bridges" (§4.2.3).
"""

from __future__ import annotations

from repro.radio.standards import WLAN
from repro.radio.technology import Technology
from repro.peerhood.plugins.base import Plugin


class WLANPlugin(Plugin):
    """PeerHood's WLAN plugin (802.11b ad-hoc by default).

    A scan is one broadcast round: unlike Bluetooth inquiry, the
    broadcast probe's cost is flat, since all peers answer within the
    same reply window regardless of count, so the base class's
    ``scan_duration`` applies.

    A different 802.11 variant from the Table 1 registry can be
    injected for the standards bench by assigning ``technology`` on the
    instance.
    """

    technology: Technology = WLAN
