"""Ablation experiments for the design choices DESIGN.md calls out.

Three studies the thesis motivates but does not run:

* **Semantics** (§5.2.6 / §6): how many spuriously-split groups does
  semantic teaching merge, and what does membership look like after?
* **Technology choice** (§5.1): group-formation latency over
  Bluetooth vs WLAN vs GPRS, plus the data cost of each.
* **Scan interval** (§6 "performance testing during the dynamic group
  discovery"): how the PHD discovery period trades freshness against
  formation latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.testbed import Testbed
from repro.mobility.geometry import Point


@dataclass(frozen=True)
class SemanticsResult:
    """Before/after picture of the biking-vs-cycling experiment."""

    groups_before: tuple[str, ...]
    groups_after: tuple[str, ...]
    biking_members_before: tuple[str, ...]
    merged_members_after: tuple[str, ...]


def run_semantics_ablation(seed: int = 0) -> SemanticsResult:
    """§5.2.6's exact failure case, then the future-work fix.

    Three members: one says "biking", one says "cycling", one says
    both-ish ("biking").  Without semantics the group splits; after
    ``teach_semantics("biking", "cycling")`` one merged group remains.
    """
    bed = Testbed(seed=seed, semantic=True, technologies=("bluetooth",))
    rider_a = bed.add_member("ann", ["biking", "music"])
    bed.add_member("ben", ["cycling", "music"])
    bed.add_member("cat", ["biking", "movies"])
    bed.run(40.0)

    engine = rider_a.app.engine
    groups_before = tuple(engine.group_names())
    biking_before = tuple(engine.members_of("biking"))

    engine.teach_semantics("biking", "cycling")
    groups_after = tuple(engine.group_names())
    merged_after = tuple(engine.members_of("biking"))
    bed.stop()
    return SemanticsResult(groups_before, groups_after,
                           biking_before, merged_after)


@dataclass(frozen=True)
class TechnologyResult:
    """Formation latency and cost for one technology."""

    technology: str
    formation_time_s: float
    bytes_sent: int
    cost: float


def run_technology_ablation(seed: int = 0) -> list[TechnologyResult]:
    """Group formation over each single technology (§5.1's cost claim)."""
    results = []
    for technology in ("bluetooth", "wlan", "gprs"):
        bed = Testbed(seed=seed, technologies=(technology,))
        observer = bed.add_member("alice", ["football"])
        bed.add_member("bob", ["football"])
        start = bed.env.now
        formation = bed.wait_for_groups(observer, observer.joined("football"),
                                        timeout=300.0) - start
        adapters = bed.medium.adapters_of("alice") + bed.medium.adapters_of("bob")
        sent = sum(adapter.bytes_sent for adapter in adapters)
        cost = sum(adapter.cost_incurred for adapter in adapters)
        if technology == "gprs":
            cost += bed.gateway.total_cost()
        bed.stop()
        results.append(TechnologyResult(technology, formation, sent, cost))
    return results


@dataclass(frozen=True)
class ScanIntervalPoint:
    """One point of the scan-interval sweep."""

    scan_interval_s: float
    formation_time_s: float
    scans_performed: int


def run_scan_interval_sweep(intervals: tuple[float, ...] = (2.0, 5.0, 10.0,
                                                            20.0, 40.0),
                            seed: int = 0) -> list[ScanIntervalPoint]:
    """Formation latency of a late-arriving peer vs discovery period.

    The peer appears just *after* the observer's first scan finished —
    in the idle window before the next periodic scan — so that next
    scan is what finds it, making the interval the dominant term.
    That is the trade-off §6 asks to quantify.
    """
    points = []
    for interval in intervals:
        bed = Testbed(seed=seed, technologies=("bluetooth",),
                      scan_interval=interval)
        observer = bed.add_member("alice", ["football"],
                                  position=Point(100.0, 100.0))
        # The first (empty) inquiry lasts at most ~5.8 s; 6.0 s lands in
        # the idle window for every interval in the sweep.
        bed.run(6.0)
        arrival = bed.env.now
        bed.add_member("bob", ["football"], position=Point(103.0, 100.0))
        formed = bed.wait_for_groups(observer, observer.joined("football"),
                                     timeout=600.0)
        plugin = observer.device.daemon.plugins["bluetooth"]
        points.append(ScanIntervalPoint(interval, formed - arrival,
                                        plugin.scan_count))
        bed.stop()
    return points
