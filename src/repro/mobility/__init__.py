"""Mobility substrate: a 2D world of moving devices.

The paper's "mobile environment" (Figure 1) is modelled as a bounded
2D plane on which each personal trusted device follows a mobility
model.  The radio medium queries the world for inter-device distances;
PeerHood's active monitoring reacts to devices crossing range
boundaries (Figure 5).
"""

from repro.mobility.geometry import Point, Rect, distance
from repro.mobility.models import (
    BusRoute,
    LinearCrossing,
    MobilityModel,
    PathFollower,
    RandomWalk,
    RandomWaypoint,
    Stationary,
)
from repro.mobility.grid import SpatialGrid
from repro.mobility.world import MobileNode, MovementReport, World

__all__ = [
    "BusRoute",
    "LinearCrossing",
    "MobileNode",
    "MobilityModel",
    "MovementReport",
    "PathFollower",
    "Point",
    "RandomWalk",
    "RandomWaypoint",
    "Rect",
    "SpatialGrid",
    "Stationary",
    "World",
    "distance",
]
