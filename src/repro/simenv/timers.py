"""Recurring timers built on the event queue."""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
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
        self.fire_count = 0
        #: The pending firing; ``None`` once stopped.  Its callback, made
        #: once and handed from each fired event to the next, alone
        #: holds the owner's callback, which is often a method of the
        #: timer's owner: a stopped timer, or one whose event the
        #: environment dropped on close, forms no cycle with its owner.
        self._event: Event | None = env.call_in(
            interval, partial(self._fire, callback))

    @property
    def running(self) -> bool:
        """Whether the timer will fire again."""
        return self._event is not None

    @property
    def interval(self) -> float:
        """Seconds between firings."""
        return self._interval

    def stop(self) -> None:
        """Cancel the pending firing; the timer never fires again."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self, callback: Callable[[], Any]) -> None:
        self.fire_count += 1
        callback()
        event = self._event
        if event is not None:
            self._event = self._env.call_in(self._interval, event.callback)
