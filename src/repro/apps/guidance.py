"""Guidance system: location-aware routing to a destination (§4.4).

"The guidance system offers guidance to travelers in some strange
environment into some selected destinations."  Guidance points are
stationary PeerHood devices at known places; each registers the
``Guidance`` service and shares a place graph.  A traveller asks the
*nearest* guidance point for the route to a destination; the point
answers with the next hop (and the remaining path), computed over the
graph with networkx; the traveller walks hop to hop until arrival —
exactly the predictive-Bluetooth guidance of the cited WAWC'04 work,
in simulation.
"""

from __future__ import annotations

import contextlib
from collections.abc import Generator

import networkx as nx

from repro.mobility.geometry import Point, distance
from repro.net.connection import Connection
from repro.peerhood.library import PeerHoodLibrary

SERVICE_NAME = "Guidance"


class GuidanceRouter:
    """The shared place graph all guidance points of one site use."""

    def __init__(self) -> None:
        self.graph = nx.Graph()

    def add_place(self, name: str, position: Point) -> None:
        """Register a named place."""
        self.graph.add_node(name, position=position)

    def connect_places(self, a: str, b: str) -> None:
        """Declare a walkable corridor between two places."""
        weight = distance(self.graph.nodes[a]["position"],
                          self.graph.nodes[b]["position"])
        self.graph.add_edge(a, b, weight=weight)

    def position_of(self, name: str) -> Point:
        """Where a place is."""
        return self.graph.nodes[name]["position"]

    def route(self, origin: str, destination: str) -> list[str]:
        """Shortest walking route between two places.

        Raises ``nx.NetworkXNoPath``/``nx.NodeNotFound`` when the
        destination is unknown or unreachable.
        """
        return nx.shortest_path(self.graph, origin, destination,
                                weight="weight")


class GuidancePoint:
    """A stationary device at one place, serving route queries."""

    def __init__(self, library: PeerHoodLibrary, router: GuidanceRouter,
                 place: str) -> None:
        self.library = library
        self.router = router
        self.place = place
        self.env = library.daemon.env
        self.queries_served = 0
        library.register_service(SERVICE_NAME, {"place": place},
                                 self._accept)

    def _accept(self, connection: Connection) -> None:
        connection.on_payload = self._answer

    def _answer(self, connection: Connection, request: object) -> None:
        """Answer the link's one route query in its delivery event."""
        connection.on_payload = None
        if not isinstance(request, dict) or request.get("op") != "route":
            return
        try:
            destination = request.get("destination", "")
            path: list[str] | None = None
            # Only a place name: networkx reads a missing target as
            # "every target".
            if isinstance(destination, str):
                with contextlib.suppress(nx.NetworkXNoPath, nx.NodeNotFound):
                    path = self.router.route(self.place, destination)
            if path is None:
                reply = {"ok": False, "error": f"no route to {destination!r}"}
            else:
                next_place = path[1] if len(path) > 1 else self.place
                reply = {
                    "ok": True,
                    "here": self.place,
                    "destination": destination,
                    "next": next_place,
                    "path": path,
                    "next_position": [self.router.position_of(next_place).x,
                                      self.router.position_of(next_place).y],
                }
                self.queries_served += 1
            with contextlib.suppress(ConnectionError, OSError):
                connection.send(reply)
        except Exception as exc:
            connection.answer_failed(f"guidance:{self.place}", exc)


class Traveler:
    """The traveller's PTD: ask the nearest point, walk, repeat."""

    def __init__(self, library: PeerHoodLibrary) -> None:
        self.library = library
        self.asked: list[str] = []

    def visible_points(self) -> list[tuple[str, str]]:
        """``(device_id, place)`` of guidance points in range."""
        points = []
        for service in self.library.get_service_listing():
            if service.name == SERVICE_NAME:
                points.append((service.device_id,
                               service.attribute("place", "?")))
        return sorted(points)

    def nearest_point(self) -> tuple[str, str]:
        """The in-range guidance point with the strongest signal.

        Signal strength is the PTD's only distance proxy — the same
        trick the cited predictive-Bluetooth guidance system used.
        Raises ``LookupError`` when no point is in range.
        """
        points = self.visible_points()
        if not points:
            raise LookupError("no guidance point in range")
        medium = self.library.daemon.medium
        own = self.library.device_id

        def quality(entry: tuple[str, str]) -> float:
            device_id, _ = entry
            return max(medium.link_quality(own, device_id, name)
                       for name in ("bluetooth", "wlan", "gprs"))

        return max(points, key=quality)

    def ask_route(self, destination: str) -> Generator:
        """Query the nearest visible guidance point for the route.

        Returns the point's reply dict; raises ``LookupError`` when no
        guidance point is in range.
        """
        device_id, place = self.nearest_point()
        self.asked.append(place)
        connection = yield from self.library.connect(device_id, SERVICE_NAME)
        try:
            connection.send({"op": "route", "destination": destination})
            reply = yield connection.recv()
        finally:
            connection.close()
        if reply is None:
            raise ConnectionError("guidance connection lost")
        return reply
