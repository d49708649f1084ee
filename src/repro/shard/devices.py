"""Device state that can cross shard boundaries byte-for-byte.

The sharded engine's correctness rests on *exact ghost replication*: a
shard that imports a foreign device's state must advance it through
bit-identical float arithmetic to the owner's copy.  That requires the
whole mobility state — position, heading, phase, and the random stream
driving direction changes — to travel in one picklable value.

:class:`SeededWalk` is the walker model built for that: the same
bounce-off-the-walls random walk as
:class:`repro.mobility.models.RandomWalk`, but drawing headings from a
self-contained 64-bit LCG (a hundred-byte pickle) instead of a shared
``random.Random`` stream (a ~2.5 KiB Mersenne state per device —
meaningful when a 100,000-device crowd is distributed to workers).
Any :class:`~repro.mobility.models.MobilityModel` whose state pickles
completely works as a shard device model; ``SeededWalk`` is simply the
cheap default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.mobility.geometry import Point, Rect
from repro.mobility.models import MobilityModel
from repro.simenv.rng import RandomStreams

#: Interest pool mirroring :data:`repro.eval.workloads.INTEREST_POOL`
#: (kept local so shard workers never import the eval layer).
INTEREST_POOL = (
    "football", "music", "movies", "photography", "travel", "cooking",
    "gaming", "books", "hiking", "cycling", "tennis", "ice hockey",
)

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class SeededWalk:
    """Random walk with a self-contained, picklable random state.

    Step semantics match :class:`repro.mobility.models.RandomWalk`:
    advance along the current heading, re-draw it every
    ``turn_interval`` seconds, bounce off the bounds by reversing.
    The heading stream is a 64-bit LCG seeded per device, so a pickled
    copy resumes the identical draw sequence — the property ghost
    replication depends on.
    """

    def __init__(self, bounds: Rect, speed: float, seed: int,
                 turn_interval: float = 8.0) -> None:
        if speed < 0:
            raise ValueError(f"speed must be non-negative, got {speed!r}")
        if turn_interval <= 0:
            raise ValueError(
                f"turn_interval must be positive, got {turn_interval!r}")
        self._bounds = bounds
        self._speed = speed
        self._turn_interval = turn_interval
        self._state = (seed ^ _LCG_INC) & _LCG_MASK
        self._heading = self._draw_heading()
        self._until_turn = turn_interval

    def _draw_heading(self) -> float:
        self._state = (self._state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        return (self._state >> 11) * (2.0 * math.pi / (1 << 53))

    def step(self, position: Point, dt: float) -> Point:
        """Advance along the heading, re-drawing it periodically."""
        self._until_turn -= dt
        if self._until_turn <= 0.0:
            self._heading = self._draw_heading()
            self._until_turn = self._turn_interval
        moved = position.offset(math.cos(self._heading) * self._speed * dt,
                                math.sin(self._heading) * self._speed * dt)
        clamped = self._bounds.clamp(moved)
        if clamped is not moved and (clamped.x != moved.x
                                     or clamped.y != moved.y):
            self._heading = (self._heading + math.pi) % (2.0 * math.pi)
        return clamped


class DriftWalk(SeededWalk):
    """A :class:`SeededWalk` carried along by a shared drift velocity.

    Models a *moving flash crowd*: every member of a hotspot jitters
    around locally (the inherited random walk) while the whole crowd
    translates at ``(drift_x, drift_y)`` metres per second — so the
    hotspot itself migrates across the map and across whatever
    partition borders lie in its path.  Hitting the world edge
    reflects the drift on the offending axis (and reverses the local
    heading, as the base walk does), keeping the crowd in bounds.
    State is the base walk's LCG plus two floats, so pickled replicas
    resume identically — the ghost-replication requirement.
    """

    def __init__(self, bounds: Rect, speed: float, seed: int,
                 drift_x: float, drift_y: float,
                 turn_interval: float = 8.0) -> None:
        super().__init__(bounds, speed, seed, turn_interval)
        self._drift_x = drift_x
        self._drift_y = drift_y

    def step(self, position: Point, dt: float) -> Point:
        walked = super().step(position, dt)
        moved = walked.offset(self._drift_x * dt, self._drift_y * dt)
        clamped = self._bounds.clamp(moved)
        if clamped.x != moved.x:
            self._drift_x = -self._drift_x
        if clamped.y != moved.y:
            self._drift_y = -self._drift_y
        return clamped


@dataclass
class DeviceState:
    """One device's complete, transferable simulation state.

    This is the unit of both *migration* (ownership hand-off when a
    device walks into another strip) and *ghosting* (border export so
    neighbouring shards see it).  ``x``/``y`` are refreshed from the
    world immediately before export; ``model`` is the live mobility
    model object, whose internal state must pickle exactly
    (``None`` means stationary).
    """

    device_id: str
    x: float
    y: float
    interests: tuple[str, ...] = ()
    model: MobilityModel | None = None
    #: Per-device discovery-scan phase offset in seconds (added to the
    #: global scan schedule; 0 keeps everyone on the shared schedule).
    scan_phase: float = 0.0

    def position(self) -> Point:
        return Point(self.x, self.y)


def build_crowd(*, count: int, bounds: Rect, seed: int,
                walker_fraction: float = 0.25,
                walker_speed: float = 1.2,
                turn_interval: float = 8.0,
                stream: str = "shardcrowd") -> list[DeviceState]:
    """Deterministic jittered-lattice crowd, mirroring
    :func:`repro.eval.workloads.populate_crowd`'s layout.

    Built once by the coordinator and then distributed, so the device
    list — positions, interests, walker assignment, walker seeds — is
    identical at every shard count by construction.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    rng = RandomStreams(seed).stream(stream)
    columns = max(2, math.isqrt(max(1, count - 1)) + 1)
    pitch_x = bounds.width / columns
    pitch_y = bounds.height / columns
    devices: list[DeviceState] = []
    for index in range(count):
        row, column = divmod(index, columns)
        x = bounds.min_x + (column + 0.5 + rng.uniform(-0.3, 0.3)) * pitch_x
        y = bounds.min_y + (row + 0.5 + rng.uniform(-0.3, 0.3)) * pitch_y
        interest_count = rng.randint(1, 4)
        interests = tuple(rng.sample(INTEREST_POOL, interest_count))
        model: MobilityModel | None = None
        if rng.random() < walker_fraction:
            model = SeededWalk(bounds, walker_speed,
                               seed=rng.getrandbits(63),
                               turn_interval=turn_interval)
        devices.append(DeviceState(device_id=f"d{index:06d}", x=x, y=y,
                                   interests=interests, model=model))
    return devices


def build_clustered_crowd(*, count: int, bounds: Rect, seed: int,
                          clusters: int = 3,
                          cluster_weights: tuple[float, ...] = (),
                          hot_fraction: float = 0.6,
                          sigma_fraction: float = 0.05,
                          center_spread: float = 0.1,
                          center_spread_y: float | None = None,
                          drift_speed: float = 0.0,
                          walker_fraction: float = 0.25,
                          walker_speed: float = 1.2,
                          turn_interval: float = 8.0,
                          stream: str = "shardclustered",
                          ) -> list[DeviceState]:
    """Deterministic crowd with Gaussian hotspots — the clumpy case.

    ``hot_fraction`` of the crowd is drawn around ``clusters`` hotspot
    centres (``cluster_weights`` splits it; empty means equal shares)
    with per-axis deviation ``sigma_fraction * min(width, height)``;
    the rest is uniform background.  Centres themselves are drawn
    around a random "venue district" point — within
    ``center_spread`` of the width horizontally and
    ``center_spread_y`` (default: same) of the height vertically —
    mirroring how real venues cluster downtown.  A *tight* horizontal
    spread with a wider vertical one models a main street: every
    hotspot lands in the same vertical strip (starving a strip
    partition completely) while staying separable by a 2D tiling.

    ``drift_speed > 0`` turns the hotspots into *moving* flash crowds:
    every hot member gets a :class:`DriftWalk` sharing its cluster's
    drift direction, so the whole crowd translates coherently.  Cold
    (background) members walk with ``walker_fraction`` probability
    like :func:`build_crowd`'s.

    Built once by the coordinator and then distributed, so the device
    list is identical at every shard count by construction.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if clusters < 1:
        raise ValueError(f"clusters must be >= 1, got {clusters!r}")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError(
            f"hot_fraction must be in [0, 1], got {hot_fraction!r}")
    if cluster_weights and len(cluster_weights) != clusters:
        raise ValueError(f"{len(cluster_weights)} weights for "
                         f"{clusters} clusters")
    weights = cluster_weights or tuple(1.0 for _ in range(clusters))
    if any(weight <= 0.0 for weight in weights):
        raise ValueError(f"cluster weights must be positive, got {weights!r}")
    total_weight = sum(weights)
    cumulative: list[float] = []
    running = 0.0
    for weight in weights:
        running += weight / total_weight
        cumulative.append(running)
    cumulative[-1] = 1.0  # float-sum slack must not orphan the last draw

    rng = RandomStreams(seed).stream(stream)
    sigma = sigma_fraction * min(bounds.width, bounds.height)
    district_x = bounds.min_x + rng.uniform(0.3, 0.7) * bounds.width
    district_y = bounds.min_y + rng.uniform(0.3, 0.7) * bounds.height
    spread_x = center_spread * bounds.width
    if center_spread_y is None:
        center_spread_y = center_spread
    spread_y = center_spread_y * bounds.height
    # Keep centres at least one sigma inside the bounds — a centre on
    # the edge would fold half its Gaussian onto the boundary clamp
    # and manufacture an artificial density spike there.
    margin_x = min(sigma, bounds.width / 2.0)
    margin_y = min(sigma, bounds.height / 2.0)
    centers = [(min(bounds.max_x - margin_x,
                    max(bounds.min_x + margin_x,
                        district_x + rng.uniform(-spread_x, spread_x))),
                min(bounds.max_y - margin_y,
                    max(bounds.min_y + margin_y,
                        district_y + rng.uniform(-spread_y, spread_y))))
               for _ in range(clusters)]
    drifts = []
    for _ in range(clusters):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        drifts.append((math.cos(angle) * drift_speed,
                       math.sin(angle) * drift_speed))

    # Inset the clamp so no device starts exactly on the bounds edge
    # (positions stay strictly interior, like the lattice builder's).
    inset = min(1.0, bounds.width / 1000.0, bounds.height / 1000.0)
    lo_x, hi_x = bounds.min_x + inset, bounds.max_x - inset
    lo_y, hi_y = bounds.min_y + inset, bounds.max_y - inset

    devices: list[DeviceState] = []
    for index in range(count):
        hot = rng.random() < hot_fraction
        if hot:
            pick = rng.random()
            cluster = 0
            while cumulative[cluster] < pick:
                cluster += 1
            cx, cy = centers[cluster]
            x = min(hi_x, max(lo_x, cx + rng.gauss(0.0, sigma)))
            y = min(hi_y, max(lo_y, cy + rng.gauss(0.0, sigma)))
        else:
            x = rng.uniform(lo_x, hi_x)
            y = rng.uniform(lo_y, hi_y)
        interest_count = rng.randint(1, 4)
        interests = tuple(rng.sample(INTEREST_POOL, interest_count))
        model: MobilityModel | None = None
        if hot and drift_speed > 0.0:
            drift_x, drift_y = drifts[cluster]
            model = DriftWalk(bounds, walker_speed,
                              seed=rng.getrandbits(63),
                              drift_x=drift_x, drift_y=drift_y,
                              turn_interval=turn_interval)
        elif rng.random() < walker_fraction:
            model = SeededWalk(bounds, walker_speed,
                               seed=rng.getrandbits(63),
                               turn_interval=turn_interval)
        devices.append(DeviceState(device_id=f"d{index:06d}", x=x, y=y,
                                   interests=interests, model=model))
    return devices


__all__ = ["DeviceState", "DriftWalk", "SeededWalk", "build_clustered_crowd",
           "build_crowd", "INTEREST_POOL"]
