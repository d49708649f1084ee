"""Technology descriptors shared by the medium, plugins and benches."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Technology:
    """Parametric description of one wireless technology.

    Attributes:
        name: Short identifier ("bluetooth", "wlan", "gprs", ...).
        range_m: Radio range in metres; ``None`` means wide-area (the
            technology reaches any peer through operator infrastructure,
            as GPRS does through its gateway).
        bandwidth_bps: Usable application-level throughput in bits/s.
        latency_s: One-way per-message latency in seconds.
        setup_time_s: Time to establish a connection (paging, PDP
            context activation, TCP-ish handshake...).
        discovery_time_s: Duration of one device-discovery scan.
        cost_per_mb: Monetary cost of transferring one megabyte; zero
            for local radios, positive for cellular (§5.1's "cost of
            data service is low as Bluetooth and WLAN can be primely
            used").
        needs_gateway: True when traffic is relayed through an operator
            gateway rather than flowing device-to-device (GPRSPlugin
            "uses proxy device as a bridge", §4.2.3).
        frame_loss_rate: Probability one link-layer frame transmission
            is lost and must be retransmitted.  Zero by default: the
            BTPlugin "offers ordered and reliable data delivery"
            (§4.2.3), so reliability is the baseline and loss is an
            experiment knob (``dataclasses.replace``d in benches).
    """

    name: str
    range_m: float | None
    bandwidth_bps: float
    latency_s: float
    setup_time_s: float
    discovery_time_s: float
    cost_per_mb: float = 0.0
    needs_gateway: bool = False
    frame_loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.range_m is not None and self.range_m <= 0:
            raise ValueError(f"range must be positive or None, got {self.range_m!r}")
        if self.bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_bps!r}")
        for field_name in ("latency_s", "setup_time_s", "discovery_time_s",
                           "cost_per_mb"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
        if not 0.0 <= self.frame_loss_rate < 1.0:
            raise ValueError(
                f"frame_loss_rate must be in [0, 1), got {self.frame_loss_rate!r}")

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to push ``nbytes`` over an established connection.

        One-way latency plus serialisation delay.  Used by simulated
        connections for every message.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes!r}")
        return self.latency_s + (nbytes * 8.0) / self.bandwidth_bps

    def transfer_cost(self, nbytes: int) -> float:
        """Monetary cost of transferring ``nbytes``."""
        return self.cost_per_mb * (nbytes / 1_000_000.0)

    def link_quality(self, distance_m: float) -> float:
        """Signal quality in [0, 1]; 0 means out of range.

        A quadratic falloff — crude but monotone, which is all the
        seamless-connectivity logic needs: PeerHood reacts to *weakening*
        links (Table 3, "Seamless Connectivity"), so only the ordering
        of qualities matters, not their absolute calibration.
        """
        if self.range_m is None:
            return 1.0
        if distance_m > self.range_m:
            return 0.0
        return max(0.0, 1.0 - (distance_m / self.range_m) ** 2)
