"""Recording message sequences from live simulation runs."""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple


class MscEvent(NamedTuple):
    """One element of a message sequence chart.

    A named tuple, not a frozen dataclass: two are recorded per PS_*
    exchange, and a dataclass pays ``object.__setattr__`` per field.
    Still immutable and hashable, and equal only to another
    :class:`MscEvent`, never to a plain tuple.

    Attributes:
        time: Virtual time of the event.
        kind: ``"message"`` (arrow), ``"action"`` (box on one
            lifeline) or ``"note"`` (annotation on one lifeline).
        source: Originating entity.
        target: Receiving entity (same as source for action/note).
        label: Text on the arrow or in the box.
    """

    time: float
    kind: str
    source: str
    target: str
    label: str

    def __eq__(self, other: object) -> bool:
        return type(other) is MscEvent and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class MscRecorder:
    """Collects :class:`MscEvent` records during a run."""

    def __init__(self) -> None:
        self.events: list[MscEvent] = []

    def message(self, time: float, source: str, target: str, label: str) -> None:
        """Record a message arrow ``source -> target``."""
        self.events.append(MscEvent(time, "message", source, target, label))

    def action(self, time: float, entity: str, label: str) -> None:
        """Record a local action (e.g. "writes comment to profile")."""
        self.events.append(MscEvent(time, "action", entity, entity, label))

    def note(self, time: float, entity: str, label: str) -> None:
        """Record an annotation on one lifeline."""
        self.events.append(MscEvent(time, "note", entity, entity, label))

    def clear(self) -> None:
        """Forget everything recorded so far."""
        self.events.clear()

    def participants(self) -> list[str]:
        """Entities in order of first appearance."""
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.source, None)
            seen.setdefault(event.target, None)
        return list(seen)

    def messages_between(self, a: str, b: str) -> list[MscEvent]:
        """All message arrows exchanged between two entities."""
        return [event for event in self.events
                if event.kind == "message"
                and {event.source, event.target} == {a, b}]

    def labels(self, kind: str | None = None) -> list[str]:
        """Event labels in order, optionally filtered by kind."""
        return [event.label for event in self.events
                if kind is None or event.kind == kind]

    def subchart(self, participants: Iterable[str]) -> MscRecorder:
        """A recorder view containing only events among ``participants``."""
        wanted = set(participants)
        view = MscRecorder()
        view.events = [event for event in self.events
                       if event.source in wanted and event.target in wanted]
        return view
