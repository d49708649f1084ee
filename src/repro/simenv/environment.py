"""The simulation environment: clock + event queue + processes + RNG."""

from __future__ import annotations

from functools import partial
from heapq import heappop
from collections.abc import Callable, Generator
from typing import Any, Protocol

from repro.simenv.clock import SimClock
from repro.simenv.events import Event, EventQueue
from repro.simenv.process import Process
from repro.simenv.rng import RandomStreams
from repro.simenv.signal import Signal


class SimulationError(RuntimeError):
    """Raised by :meth:`Environment.run` when an unobserved process failed."""


class Failing(Protocol):
    """What a failure report names: a process, or work run as callbacks."""

    name: str


#: The stop condition of a run without a stop signal: it never fires.
_NEVER = Signal("run")


class _Cohort:
    """Callbacks due at one time that share one kernel event.

    Each member took its own sequence number when it was scheduled, and
    the cohort's queue entry sits at its next member's ``(time,
    sequence)``.  Before each later member it hands control back, with
    the rest re-queued at that member's slot, wherever the run loop
    would have regained it between two separate events: a live entry
    due at the same time with a smaller sequence, a fired stop signal,
    or a pending failure (DESIGN.md §10, "Scan cohorts").
    """

    __slots__ = ("_env", "_time", "_sequences", "_callbacks", "_next")

    def __init__(self, env: Environment, time: float, sequence: int,
                 callback: Callable[[], Any]) -> None:
        self._env = env
        self._time = time
        self._sequences = [sequence]
        self._callbacks = [callback]
        #: Index of the next member to fire.
        self._next = 0

    def _fire(self) -> None:
        env = self._env
        time = self._time
        sequences = self._sequences
        callbacks = self._callbacks
        index = self._next
        if not index:
            # Closed: a member scheduled for this time from now on
            # starts a new cohort.
            del env._cohorts[time]
        last = len(callbacks)
        heap = env.queue._heap
        failures = env._failures
        while True:
            callback = callbacks[index]
            index += 1
            if index == last:
                callback()
                return
            try:
                callback()
            except BaseException:
                self._requeue(index)
                raise
            if failures or env._stop._fired:
                break
            slot = (time, sequences[index])
            while heap and heap[0] < slot:
                if not heap[0][2].cancelled:
                    self._requeue(index)
                    return
                heappop(heap)
        self._requeue(index)

    def _requeue(self, index: int) -> None:
        self._next = index
        self._env.queue.push_slot(self._time, self._sequences[index],
                                  self._fire)


class Environment:
    """Owns virtual time and drives all scheduled work.

    Args:
        seed: Root seed for all named random streams.

    The environment is single-threaded and fully deterministic: two
    environments created with the same seed and fed the same schedule
    produce byte-identical traces.
    """

    def __init__(self, seed: int = 0) -> None:
        self.clock = SimClock()
        self.queue = EventQueue()
        self.random = RandomStreams(seed)
        self._failures: list[tuple[Failing, BaseException]] = []
        #: Cohorts not yet firing, by due time.
        self._cohorts: dict[float, _Cohort] = {}
        #: Stop signal of the run firing events right now.
        self._stop = _NEVER

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        """Events fired since construction (wall-clock bench metric).

        A cohort counts one event per part: per pop of its queue entry.
        """
        return self.queue.popped_total

    # -- scheduling ----------------------------------------------------------

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``when``."""
        if when < self.clock.now:
            raise ValueError(f"cannot schedule in the past: "
                             f"now={self.clock.now}, when={when}")
        if args:
            callback = partial(callback, *args)
        return self.queue.push(when, callback)

    def call_in(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        if args:
            callback = partial(callback, *args)
        return self.queue.push(self.clock.now + delay, callback)

    def call_in_cohort(self, delay: float, callback: Callable[[], Any]) -> None:
        """Schedule ``callback()`` after ``delay`` seconds, sharing one
        kernel event with the other cohort callbacks due then.

        It fires exactly where ``call_in(delay, callback)`` would have,
        relative to every other event; only the event count differs.
        The call cannot be cancelled.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        when = self.clock.now + delay
        queue = self.queue
        sequence = queue.take_sequence()
        cohort = self._cohorts.get(when)
        if cohort is None:
            cohort = self._cohorts[when] = _Cohort(self, when, sequence,
                                                   callback)
            queue.push_slot(when, sequence, cohort._fire)
        else:
            cohort._sequences.append(sequence)
            cohort._callbacks.append(callback)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a generator process immediately (first step runs now)."""
        process = Process(self, generator, name=name)
        process._start()
        return process

    # -- running ---------------------------------------------------------

    def run(self, until: float | None = None,
            stop: Signal | None = None) -> float:
        """Run events until the queue empties, ``until`` is reached or
        ``stop`` fires.

        Returns the virtual time at which the run stopped.  A run that
        ends before ``until`` advances the clock to it, unless it was
        given a ``stop`` signal: such a run waits for the signal, so the
        clock stays at the last event fired.  If any process died with
        an unobserved exception during the run, a
        :class:`SimulationError` chaining the first failure is raised —
        errors never pass silently.
        """
        self._raise_pending_failure()
        queue = self.queue
        clock = self.clock
        failures = self._failures
        outer, self._stop = self._stop, _NEVER if stop is None else stop
        try:
            while stop is None or not stop._fired:
                event = queue.pop_before(until)
                if event is None:
                    break
                clock.advance_to(event.time)
                event.callback()
                if failures:
                    self._raise_pending_failure()
        finally:
            self._stop = outer
        if stop is None and until is not None and clock.now < until:
            clock.advance_to(until)
        return clock.now

    def step(self) -> bool:
        """Execute exactly one event: for a cohort, one part of it.

        Returns ``False`` when idle.
        """
        self._raise_pending_failure()
        if not self.queue:
            return False
        event = self.queue.pop()
        self.clock.advance_to(event.time)
        event.callback()
        self._raise_pending_failure()
        return True

    def _raise_pending_failure(self) -> None:
        if self._failures:
            process, exc = self._failures.pop(0)
            raise SimulationError(
                f"process {process.name!r} failed at t={self.now:.6f}: {exc!r}"
            ) from exc

    # -- failures -------------------------------------------------------------

    def note_failure(self, process: Failing, exception: BaseException) -> None:
        """Record a failure nobody is waiting on.

        The run loop raises :class:`SimulationError` naming
        ``process.name`` once the current event is done.
        """
        self._failures.append((process, exception))

    def acknowledge_failure(self, process: Failing) -> None:
        """Mark ``process``'s failure as observed by the caller.

        Harnesses that read ``process.result`` directly (and therefore
        re-raise the exception themselves) call this so the event loop
        does not raise :class:`SimulationError` for the same failure.
        """
        # In place: a running loop holds this list.
        self._failures[:] = [(failed, exc) for failed, exc in self._failures
                             if failed is not process]

    def __repr__(self) -> str:
        return f"Environment(now={self.now:.6f}, pending={len(self.queue)})"
