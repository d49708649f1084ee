"""Workload generators for the experiment benches."""

from __future__ import annotations

import math
from random import Random

from repro.eval.testbed import MemberHandle, Testbed
from repro.mobility.geometry import Point, Rect
from repro.mobility.models import RandomWalk

#: Interest pool for synthetic populations; overlaps are common enough
#: that neighbourhood-scale groups always form.
INTEREST_POOL = (
    "football", "music", "movies", "photography", "travel", "cooking",
    "gaming", "books", "hiking", "cycling", "tennis", "ice hockey",
)


def random_interests(rng: Random, minimum: int = 1, maximum: int = 4,
                     pool: tuple[str, ...] = INTEREST_POOL) -> list[str]:
    """A random interest set of 1-4 interests from the pool."""
    count = rng.randint(minimum, min(maximum, len(pool)))
    return rng.sample(pool, count)


def populate_neighborhood(bed: Testbed, count: int, *,
                          stream: str = "workload",
                          shared_interest: str | None = None,
                          radius: float = 8.0) -> list[MemberHandle]:
    """Add ``count`` members clustered inside Bluetooth range.

    Args:
        bed: Target testbed.
        count: Members to create (named ``m00``, ``m01``...).
        stream: Random stream name for interest draws.
        shared_interest: If set, every member additionally holds this
            interest so one guaranteed group spans everyone.
        radius: Cluster radius in metres.

    Returns the created member handles.
    """
    rng = bed.env.random.stream(stream)
    members = []
    center = Point(100.0, 100.0)
    for index in range(count):
        interests = random_interests(rng)
        if shared_interest and shared_interest not in interests:
            interests.append(shared_interest)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        distance = rng.uniform(0.0, radius)
        position = Point(center.x + distance * math.cos(angle),
                         center.y + distance * math.sin(angle))
        members.append(bed.add_member(f"m{index:02d}", interests,
                                      position=position))
    return members


#: Lattice spacing of the constant-density crowd in metres.  Inside
#: WLAN range (60 m) of the nearest handful of neighbours, outside
#: Bluetooth range of almost everyone — a festival lawn, not a meeting
#: room.  Sparse enough that a device's radio disc holds a small,
#: constant neighbourhood while the roster keeps growing with ``n``.
CROWD_PITCH_M = 50.0


def crowd_bounds(count: int, pitch: float = CROWD_PITCH_M) -> Rect:
    """Square bounds sized for ``count`` members at constant density.

    Side grows with sqrt(count), so doubling the crowd doubles the
    area and each device's neighbourhood stays the same size — the
    regime where per-device work should be O(1) and only quadratic
    bookkeeping shows up as superlinear wall time.
    """
    side = pitch * max(2, math.isqrt(max(1, count - 1)) + 1)
    return Rect(0.0, 0.0, side, side)


def populate_crowd(bed: Testbed, count: int, *,
                   stream: str = "crowd",
                   walker_fraction: float = 0.25,
                   walker_speed: float = 1.2,
                   shared_interest: str | None = None) -> list[MemberHandle]:
    """Add ``count`` members spread over the whole testbed at constant
    density, a fraction of them walking.

    Members land on a jittered square lattice filling ``bed``'s bounds
    (pair :func:`crowd_bounds` with the same ``count``).  Each member
    independently becomes a pedestrian-speed :class:`RandomWalk` walker
    with probability ``walker_fraction`` — enough churn that topology
    maintenance costs show, while most links survive between scans.

    Members are placed one at a time through
    :meth:`Testbed.add_member`; each placement's notifications cost the
    radio medium O(1) whatever the crowd's size.

    Returns the created member handles (named ``m0000``, ``m0001``...).
    """
    rng = bed.env.random.stream(stream)
    bounds = bed.world.bounds
    columns = max(2, math.isqrt(max(1, count - 1)) + 1)
    pitch_x = bounds.width / columns
    pitch_y = bounds.height / columns
    members = []
    for index in range(count):
        row, column = divmod(index, columns)
        position = Point(
            bounds.min_x + (column + 0.5 + rng.uniform(-0.3, 0.3)) * pitch_x,
            bounds.min_y + (row + 0.5 + rng.uniform(-0.3, 0.3)) * pitch_y)
        interests = random_interests(rng)
        if shared_interest and shared_interest not in interests:
            interests.append(shared_interest)
        model = None
        if rng.random() < walker_fraction:
            model = RandomWalk(bounds, walker_speed,
                               bed.env.random.stream(f"{stream}.walk{index}"),
                               turn_interval=8.0)
        members.append(bed.add_member(f"m{index:04d}", interests,
                                      position=position, model=model))
    return members
