"""Event queue for the discrete-event kernel.

Events are ordered by ``(time, sequence)``.  The sequence number makes
ordering of simultaneous events deterministic: events scheduled earlier
fire earlier.  Determinism matters because the MSC reproduction tests
assert exact message orders.

The queue is one binary heap of bare ``(time, sequence, event)``
tuples, so ordering uses CPython's C-level tuple comparison.  A
sequence number can be taken without queueing anything and filled
later (``take_sequence``, ``push_slot``), which is how a cohort of
callbacks keeps each member's place while one entry stands for them.
Cancellation is lazy: a cancelled event stays in the heap, costing
what a live one would, and is dropped when it reaches the top.  Every
push builds a new :class:`Event` and nothing is recycled, so a handle
always names the one event it was returned for: a late ``cancel()``
can only reach that event, never another one (see DESIGN.md §10).
"""

from __future__ import annotations

from heapq import heappop, heappush
from collections.abc import Callable
from typing import Any

#: Process-wide count of fired events, summed over every queue ever
#: created.  The wall-clock bench harness reads deltas of this to
#: attribute event throughput to scenarios that build several
#: environments internally (Table 8, chaos replay).
events_popped_global = 0


class Event:
    """A single scheduled callback.

    Attributes:
        time: Virtual time at which the callback fires.
        sequence: Tie-breaker preserving scheduling order at equal times.
        callback: Zero-argument callable invoked when the event fires.
        cancelled: Cancelled events stay queued but are skipped.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled", "_queue")

    def __init__(self, time: float, sequence: int,
                 callback: Callable[[], Any], queue: EventQueue) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        #: The queue while the event is pending; ``None`` once popped.
        self._queue: EventQueue | None = queue

    def cancel(self) -> None:
        """Mark the event so the loop skips it (O(1); lazy deletion)."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._live -= 1

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.sequence}, {state})"


class EventQueue:
    """Binary heap of :class:`Event` with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0
        #: Pending events not cancelled.
        self._live = 0
        #: Live events fired so far (cancelled pops excluded) — the
        #: denominator for wall-clock events/sec benchmarks.
        self.popped_total = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at virtual ``time`` and return the event."""
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, sequence, callback, self)
        self._live += 1
        heappush(self._heap, (time, sequence, event))
        return event

    def take_sequence(self) -> int:
        """Take the next sequence number without queueing anything."""
        sequence = self._sequence
        self._sequence = sequence + 1
        return sequence

    def push_slot(self, time: float, sequence: int,
                  callback: Callable[[], Any]) -> None:
        """Queue ``callback`` at ``time`` in a slot taken earlier.

        ``sequence`` comes from :meth:`take_sequence`; no two live
        entries may share it.
        """
        self._live += 1
        heappush(self._heap, (time, sequence,
                              Event(time, sequence, callback, self)))

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises:
            IndexError: If the queue holds no live events.
        """
        event = self.pop_before(None)
        if event is None:
            raise IndexError("pop from empty event queue")
        return event

    def pop_before(self, until: float | None) -> Event | None:
        """Pop the earliest live event at or before ``until``.

        Fused peek+pop for the environment's run loop: one scan per
        fired event instead of two.  Returns ``None`` when the queue is
        empty or the earliest live event lies beyond ``until`` (which
        is left in place).
        """
        global events_popped_global
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heappop(heap)
                continue
            if until is not None and entry[0] > until:
                return None
            heappop(heap)
            # Detach before firing: a cancel() on a fired handle must
            # not touch the live count.
            event._queue = None
            self._live -= 1
            self.popped_total += 1
            events_popped_global += 1
            return event
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event, or ``None`` when empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None
