"""Structured event tracing for simulation runs.

A :class:`TraceLog` subscribes to the observable seams of one testbed —
PeerHood device events and group membership changes — and records them
as typed entries with virtual timestamps.  Runs can be exported as JSON
lines for offline analysis and summarised for quick inspection; scenario
tests use it to assert event *ordering* across subsystems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.community.groups import MembershipEvent
    from repro.eval.testbed import MemberHandle, Testbed


@dataclass(frozen=True)
class TraceEntry:
    """One recorded event.

    Attributes:
        time: Virtual time.
        device_id: Observing device.
        kind: Event type (``device_found``, ``device_lost``,
            ``services_updated``, ``group_join``, ``group_leave``).
        detail: Event-specific payload.
    """

    time: float
    device_id: str
    kind: str
    detail: dict


class TraceLog:
    """Event collector for one testbed."""

    def __init__(self) -> None:
        self.entries: list[TraceEntry] = []

    # -- wiring ----------------------------------------------------------------

    def attach_device(self, device_id: str, daemon) -> None:
        """Subscribe to one daemon's discovery events."""
        daemon.on_device_found(
            lambda found: self._record(daemon.env.now, device_id,
                                       "device_found", {"device": found}))
        daemon.on_device_lost(
            lambda lost: self._record(daemon.env.now, device_id,
                                      "device_lost", {"device": lost}))
        daemon.on_services_updated(
            lambda updated: self._record(daemon.env.now, device_id,
                                         "services_updated",
                                         {"device": updated}))

    def attach_member(self, member: MemberHandle) -> None:
        """Subscribe to a member's daemon and group registry."""
        self.attach_device(member.device_id, member.device.daemon)

        def record(interest: str, event: MembershipEvent) -> None:
            self._record(event.time, member.device_id,
                         "group_join" if event.joined else "group_leave",
                         {"group": interest, "member": event.member_id,
                          "reason": event.reason})

        member.app.engine.groups.on_membership_change(record)

    def attach_testbed(self, bed: Testbed) -> None:
        """Subscribe to every member already in the testbed."""
        for member in bed.members.values():
            self.attach_member(member)

    # -- recording ------------------------------------------------------------

    def _record(self, time: float, device_id: str, kind: str,
                detail: dict) -> None:
        self.entries.append(TraceEntry(time, device_id, kind, detail))

    # -- queries --------------------------------------------------------------

    def of_kind(self, kind: str) -> list[TraceEntry]:
        """Entries of one event type, in time order."""
        return [entry for entry in self.entries if entry.kind == kind]

    def for_device(self, device_id: str) -> list[TraceEntry]:
        """Entries observed by one device."""
        return [entry for entry in self.entries
                if entry.device_id == device_id]

    def summary(self) -> dict[str, int]:
        """Event counts by kind."""
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.kind] = counts.get(entry.kind, 0) + 1
        return counts

    # -- export -----------------------------------------------------------------

    def export_jsonl(self, path: str | Path) -> int:
        """Write entries as JSON lines; returns the entry count."""
        target = Path(path)
        with target.open("w", encoding="utf-8") as handle:
            for entry in self.entries:
                handle.write(json.dumps({
                    "time": entry.time,
                    "device": entry.device_id,
                    "kind": entry.kind,
                    "detail": entry.detail,
                }, sort_keys=True) + "\n")
        return len(self.entries)

    @staticmethod
    def load_jsonl(path: str | Path) -> TraceLog:
        """Rebuild a log exported with :meth:`export_jsonl`."""
        log = TraceLog()
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                data = json.loads(line)
                log._record(data["time"], data["device"], data["kind"],
                            data["detail"])
        return log
