"""Mobility models.

Each model answers one question: *where is the node after ``dt`` more
seconds, given where it is now?*  The world calls ``step`` on every
position-update tick.  Models are deliberately stateful objects rather
than pure functions because random-waypoint and path followers carry
leg state between ticks.

Models included:

* :class:`Stationary` — desktop PCs of the paper's testbed (Table 5).
* :class:`RandomWalk` — Brownian-style drift for crowd scenes.
* :class:`RandomWaypoint` — the classic ad-hoc-network evaluation model;
  pick a destination, walk there at a sampled speed, pause, repeat.
* :class:`PathFollower` — follow a fixed polyline (corridors, routes).
* :class:`BusRoute` — a shared :class:`PathFollower` loop for the
  "mobile community in a bus" scenario of §5.1.
* :class:`LinearCrossing` — walk a straight line through the area; used
  to reproduce Figure 5's enter-range / leave-range churn precisely.
"""

from __future__ import annotations

import math
from random import Random
from collections.abc import Sequence
from typing import Protocol

from repro.mobility.geometry import Point, Rect


class MobilityModel(Protocol):
    """Protocol every mobility model implements."""

    def step(self, position: Point, dt: float) -> Point:
        """Return the new position after ``dt`` seconds."""
        ...  # pragma: no cover - protocol stub


class Stationary:
    """A node that never moves (desktop PCs in the paper's testbed)."""

    def step(self, position: Point, dt: float) -> Point:
        """Return ``position`` unchanged."""
        return position


class RandomWalk:
    """Random direction changes with constant speed, clamped to bounds.

    Args:
        bounds: Area the node may not leave.
        speed: Metres per second.
        rng: Random stream (owned by the environment).
        turn_interval: Seconds between direction re-draws.
    """

    def __init__(self, bounds: Rect, speed: float, rng: Random,
                 turn_interval: float = 5.0) -> None:
        if speed < 0:
            raise ValueError(f"speed must be non-negative, got {speed!r}")
        self._bounds = bounds
        self._speed = speed
        self._rng = rng
        self._turn_interval = turn_interval
        self._heading = rng.uniform(0.0, 2.0 * math.pi)
        self._until_turn = turn_interval

    def step(self, position: Point, dt: float) -> Point:
        """Advance along the current heading, re-drawing it periodically."""
        self._until_turn -= dt
        if self._until_turn <= 0.0:
            self._heading = self._rng.uniform(0.0, 2.0 * math.pi)
            self._until_turn = self._turn_interval
        moved = position.offset(math.cos(self._heading) * self._speed * dt,
                                math.sin(self._heading) * self._speed * dt)
        clamped = self._bounds.clamp(moved)
        if clamped is not moved and (clamped.x != moved.x
                                     or clamped.y != moved.y):
            # Bounce off the wall by reversing heading.
            self._heading = (self._heading + math.pi) % (2.0 * math.pi)
        return clamped


class RandomWaypoint:
    """Random-waypoint mobility: walk to a random target, pause, repeat.

    Speeds are drawn uniformly from ``[min_speed, max_speed]`` per leg,
    pauses from ``[0, max_pause]`` — the standard parameterisation in
    the ad-hoc networking literature the thesis cites for dynamic group
    work (Hong & Gerla 2002).
    """

    def __init__(self, bounds: Rect, rng: Random, *,
                 min_speed: float = 0.5, max_speed: float = 1.5,
                 max_pause: float = 10.0) -> None:
        if not 0 <= min_speed <= max_speed:
            raise ValueError("need 0 <= min_speed <= max_speed")
        self._bounds = bounds
        self._rng = rng
        self._min_speed = min_speed
        self._max_speed = max_speed
        self._max_pause = max_pause
        self._target: Point | None = None
        self._speed = 0.0
        self._pause_left = 0.0

    def step(self, position: Point, dt: float) -> Point:
        """Advance one tick of walk-pause-walk behaviour."""
        if self._pause_left > 0.0:
            self._pause_left = max(0.0, self._pause_left - dt)
            return position
        if self._target is None:
            self._target = self._bounds.random_point(self._rng)
            self._speed = self._rng.uniform(self._min_speed, self._max_speed)
        new_position = position.moved_towards(self._target, self._speed * dt)
        if new_position == self._target:
            self._target = None
            self._pause_left = self._rng.uniform(0.0, self._max_pause)
        return new_position


class PathFollower:
    """Follow a polyline of waypoints at constant speed.

    Args:
        waypoints: At least two points defining the path.
        speed: Metres per second along the path.
        loop: Return to the first waypoint after the last and repeat.
    """

    def __init__(self, waypoints: Sequence[Point], speed: float,
                 loop: bool = False) -> None:
        if len(waypoints) < 2:
            raise ValueError("a path needs at least two waypoints")
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed!r}")
        self._waypoints = list(waypoints)
        self._speed = speed
        self._loop = loop
        self._next_index = 1

    @property
    def finished(self) -> bool:
        """True once a non-looping path has reached its final waypoint."""
        return not self._loop and self._next_index >= len(self._waypoints)

    def step(self, position: Point, dt: float) -> Point:
        """Advance ``speed * dt`` metres along the remaining path."""
        remaining = self._speed * dt
        while remaining > 0.0 and not self.finished:
            target = self._waypoints[self._next_index]
            new_position = position.moved_towards(target, remaining)
            travelled = math.hypot(new_position.x - position.x,
                                   new_position.y - position.y)
            remaining -= travelled
            position = new_position
            if position == target:
                self._next_index += 1
                if self._loop and self._next_index >= len(self._waypoints):
                    self._next_index = 0
            if travelled == 0.0 and position != target:
                break  # safety: no progress possible
        return position


class BusRoute(PathFollower):
    """A looping path at vehicle speed for the bus-community scenario.

    All passengers of one bus share a single :class:`BusRoute` instance
    plus a per-passenger fixed offset, so they move rigidly together —
    exactly the "instant mobile community" of §5.1.
    """

    def __init__(self, stops: Sequence[Point], speed: float = 8.0) -> None:
        super().__init__(stops, speed, loop=True)


class LinearCrossing:
    """Walk a straight line from ``start`` to ``end`` once, then stop.

    The deterministic workhorse of the Figure 5 churn experiments: with
    a known speed and radio range, the enter/leave times of the crossing
    node are exactly computable, so tests can assert PeerHood's
    monitoring callbacks fire at the right virtual times.
    """

    def __init__(self, start: Point, end: Point, speed: float) -> None:
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed!r}")
        self.start = start
        self.end = end
        self._speed = speed
        self._done = False

    @property
    def finished(self) -> bool:
        """True once the node reached ``end``."""
        return self._done

    def step(self, position: Point, dt: float) -> Point:
        """Move towards ``end``; stop permanently on arrival."""
        if self._done:
            return position
        new_position = position.moved_towards(self.end, self._speed * dt)
        if new_position == self.end:
            self._done = True
        return new_position
