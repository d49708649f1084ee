"""Tests for the §4.4 PeerHood applications: access control, guidance
and fitness."""

from __future__ import annotations

import pytest

from repro.apps.access_control import AccessControlledDoor, DoorKeyClient
from repro.apps.fitness import (
    FitnessDevice,
    FitnessTracker,
    analyse,
    heart_rate_zone,
)
from repro.apps.guidance import GuidancePoint, GuidanceRouter, Traveler
from repro.eval.testbed import Testbed
from repro.mobility import PathFollower, Point


class TestAccessControl:
    @pytest.fixture
    def door_bed(self):
        bed = Testbed(seed=61, technologies=("bluetooth",))
        door_device = bed.add_device("lab-door", position=Point(100, 100))
        door = AccessControlledDoor(door_device.library, "ComLab room 6604",
                                    authorized={"alice"})
        alice = bed.add_device("alice", position=Point(102, 100))
        mallory = bed.add_device("mallory", position=Point(103, 100))
        bed.run(30.0)
        yield bed, door, DoorKeyClient(alice.library), \
            DoorKeyClient(mallory.library)
        bed.stop()

    def test_door_advertised_with_resource(self, door_bed):
        bed, door, alice_key, _ = door_bed
        assert alice_key.nearby_doors() == [("lab-door", "ComLab room 6604")]

    def test_authorized_key_opens_door(self, door_bed):
        bed, door, alice_key, _ = door_bed
        reply = bed.execute(alice_key.request_access("lab-door"))
        assert reply["granted"]
        assert door.is_open
        assert door.log[-1].granted

    def test_door_relocks_after_hold_time(self, door_bed):
        bed, door, alice_key, _ = door_bed
        bed.execute(alice_key.request_access("lab-door"))
        assert door.is_open
        bed.run(door.hold_open_s + 1.0)
        assert not door.is_open

    def test_unauthorized_key_refused_and_logged(self, door_bed):
        bed, door, _, mallory_key = door_bed
        reply = bed.execute(mallory_key.request_access("lab-door"))
        assert not reply["granted"]
        assert reply["reason"] == "not authorized"
        assert not door.is_open
        assert [entry.granted for entry in door.log] == [False]

    def test_revocation_takes_effect(self, door_bed):
        bed, door, alice_key, _ = door_bed
        door.revoke("alice")
        reply = bed.execute(alice_key.request_access("lab-door"))
        assert not reply["granted"]

    def test_grant_adds_new_key(self, door_bed):
        bed, door, _, mallory_key = door_bed
        door.grant("mallory")
        reply = bed.execute(mallory_key.request_access("lab-door"))
        assert reply["granted"]


class TestGuidance:
    @pytest.fixture
    def campus(self):
        bed = Testbed(seed=67, technologies=("bluetooth",))
        router = GuidanceRouter()
        places = {
            "entrance": Point(100, 100),
            "corridor": Point(106, 100),
            "library": Point(106, 106),
            "lab": Point(112, 106),
        }
        for name, position in places.items():
            router.add_place(name, position)
        router.connect_places("entrance", "corridor")
        router.connect_places("corridor", "library")
        router.connect_places("library", "lab")
        points = {}
        for name, position in places.items():
            device = bed.add_device(f"gp-{name}", position=position)
            points[name] = GuidancePoint(device.library, router, name)
        traveler_device = bed.add_device("traveler",
                                         position=Point(101, 100))
        bed.run(30.0)
        yield bed, router, points, Traveler(traveler_device.library)
        bed.stop()

    def test_router_shortest_path(self, campus):
        _, router, _, _ = campus
        assert router.route("entrance", "lab") == [
            "entrance", "corridor", "library", "lab"]

    def test_traveler_sees_nearby_points(self, campus):
        _, _, _, traveler = campus
        places = [place for _, place in traveler.visible_points()]
        assert "entrance" in places

    def test_route_query_returns_next_hop(self, campus):
        bed, _, points, traveler = campus
        reply = bed.execute(traveler.ask_route("lab"))
        assert reply["ok"]
        assert reply["next"] == "corridor"
        assert reply["path"][-1] == "lab"
        assert sum(p.queries_served for p in points.values()) == 1

    def test_unknown_destination_reported(self, campus):
        bed, _, _, traveler = campus
        reply = bed.execute(traveler.ask_route("narnia"))
        assert not reply["ok"]

    @pytest.mark.parametrize("destination", [None, 5, ["lab"], {"to": "lab"}])
    def test_non_string_destination_reported(self, campus, destination):
        # A hostile peer's request: ``None`` once made networkx return
        # every path, and indexing that ended the run.
        bed, _, points, traveler = campus
        reply = bed.execute(traveler.ask_route(destination))
        assert reply == {"ok": False,
                         "error": f"no route to {destination!r}"}
        assert sum(p.queries_served for p in points.values()) == 0

    def test_traveler_walks_route_to_destination(self, campus):
        bed, router, _, traveler = campus
        reply = bed.execute(traveler.ask_route("lab"))
        # Follow guidance hop by hop: walk to the advised position,
        # re-ask, repeat until the guidance says we are there.
        for _ in range(6):
            if reply["next"] == reply["here"]:
                break
            target = Point(*reply["next_position"])
            node = bed.world.node("traveler")
            node.model = PathFollower([node.position, target], speed=2.0)
            bed.run(max(6.0,
                        bed.world.distance_between("traveler",
                                                   f"gp-{reply['next']}")
                        / 2.0 + 6.0))
            bed.run(25.0)  # let discovery catch up at the new spot
            reply = bed.execute(traveler.ask_route("lab"))
        assert reply["here"] == "lab"
        assert bed.world.distance_between(
            "traveler", "gp-lab") < 8.0


class TestFitness:
    def test_heart_rate_zones(self):
        assert heart_rate_zone(90) == "warm up"
        assert heart_rate_zone(115) == "fat burn"
        assert heart_rate_zone(140) == "aerobic"
        assert heart_rate_zone(160) == "anaerobic"
        assert heart_rate_zone(180) == "maximum"
        with pytest.raises(ValueError):
            heart_rate_zone(-1)

    def test_analyse_batch(self):
        feedback = analyse([120.0, 130.0, 140.0])
        assert feedback.samples == 3
        assert feedback.mean_bpm == pytest.approx(130.0)
        assert feedback.peak_bpm == 140.0
        assert feedback.zone == "aerobic"
        with pytest.raises(ValueError):
            analyse([])

    def test_workout_session_over_peerhood(self):
        bed = Testbed(seed=71, technologies=("bluetooth",))
        treadmill_device = bed.add_device("treadmill",
                                          position=Point(100, 100))
        treadmill = FitnessDevice(treadmill_device.library, "treadmill")
        runner_device = bed.add_device("runner", position=Point(101, 100))
        tracker = FitnessTracker(runner_device.library)
        bed.run(30.0)

        assert tracker.visible_equipment() == [("treadmill", "treadmill")]
        batches = [[100.0, 110.0], [130.0, 135.0], [155.0, 160.0]]
        feedback = bed.execute(tracker.workout("treadmill", batches))
        assert [f.zone for f in feedback] == ["warm up", "aerobic",
                                              "anaerobic"]
        assert treadmill.batches_analysed == 3
        assert len(tracker.session_feedback) == 3
        bed.stop()

    def test_empty_batch_rejected_by_device(self):
        bed = Testbed(seed=73, technologies=("bluetooth",))
        device = bed.add_device("bike", position=Point(100, 100))
        FitnessDevice(device.library, "bike")
        user = bed.add_device("user", position=Point(101, 100))
        tracker = FitnessTracker(user.library)
        bed.run(30.0)
        feedback = bed.execute(tracker.workout("bike", [[]]))
        assert feedback == []  # error batches produce no feedback
        bed.stop()

    def test_unanalysable_batches_answered_and_link_kept(self):
        # A hostile peer's batches each get an error reply; none ends
        # the run, and the same link then serves a good batch.
        bed = Testbed(seed=73, technologies=("bluetooth",))
        device = bed.add_device("bike", position=Point(100, 100))
        bike = FitnessDevice(device.library, "bike")
        user = bed.add_device("user", position=Point(101, 100))
        bed.run(30.0)
        replies = []

        def session():
            connection = yield from user.library.connect("bike", "Fitness")
            for samples in (["x"], [-5], 7, None, [10 ** 400], [],
                            [120.0, 130.0]):
                connection.send({"op": "batch", "samples": samples})
                replies.append((yield connection.recv()))
            connection.close()

        bed.execute(session())
        assert [reply["ok"] for reply in replies] == [False] * 6 + [True]
        assert all(isinstance(reply["error"], str) for reply in replies[:6])
        assert replies[-1]["zone"] == "fat burn"
        assert bike.batches_analysed == 1
        bed.close()
