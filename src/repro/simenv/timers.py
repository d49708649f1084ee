"""Recurring timers built on the event queue."""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.simenv.environment import Environment
from repro.simenv.events import Event


class PeriodicTimer:
    """Calls ``callback()`` every ``interval`` seconds until stopped.

    Used by the mobility world for position updates and by the
    seamless-connectivity manager to poll link quality.  The first
    firing is one ``interval`` after construction.
    """

    def __init__(self, env: Environment, interval: float,
                 callback: Callable[[], Any]) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self._env = env
        self._interval = interval
        #: ``None`` once stopped.
        self._callback: Callable[[], Any] | None = callback
        self._event: Event | None = None
        self.fire_count = 0
        self._schedule_next()

    @property
    def running(self) -> bool:
        """Whether the timer will fire again."""
        return self._callback is not None

    @property
    def interval(self) -> float:
        """Seconds between firings."""
        return self._interval

    def stop(self) -> None:
        """Cancel the pending firing; the timer never fires again.

        It lets go of its callback, which is often a method of the
        timer's owner: a stopped timer and its owner form no cycle.
        """
        self._callback = None
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule_next(self) -> None:
        self._event = self._env.call_in(self._interval, self._fire)

    def _fire(self) -> None:
        callback = self._callback
        if callback is None:
            return
        self.fire_count += 1
        callback()
        if self._callback is not None:
            self._schedule_next()
