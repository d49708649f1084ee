"""Unit tests for geometry, mobility models and the world."""

from __future__ import annotations


import pytest

from repro.mobility import (
    BusRoute,
    LinearCrossing,
    PathFollower,
    Point,
    RandomWalk,
    RandomWaypoint,
    Rect,
    Stationary,
    World,
    distance,
)


class TestGeometry:
    def test_distance(self):
        assert distance(Point(0, 0), Point(3, 4)) == 5.0

    def test_moved_towards_partial(self):
        moved = Point(0, 0).moved_towards(Point(10, 0), 4.0)
        assert moved == Point(4.0, 0.0)

    def test_moved_towards_never_overshoots(self):
        moved = Point(0, 0).moved_towards(Point(1, 0), 5.0)
        assert moved == Point(1, 0)

    def test_moved_towards_self_is_stable(self):
        point = Point(2, 2)
        assert point.moved_towards(point, 1.0) == point

    def test_offset(self):
        assert Point(1, 1).offset(2, -1) == Point(3, 0)

    def test_rect_contains_and_clamp(self):
        rect = Rect(0, 0, 10, 10)
        assert rect.contains(Point(5, 5))
        assert not rect.contains(Point(11, 5))
        assert rect.clamp(Point(-3, 12)) == Point(0, 10)

    def test_rect_dimensions(self):
        rect = Rect(1, 2, 4, 8)
        assert rect.width == 3
        assert rect.height == 6

    def test_degenerate_rect_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 10)

    def test_random_point_inside(self, env):
        rect = Rect(10, 20, 30, 40)
        rng = env.random.stream("geom")
        for _ in range(50):
            assert rect.contains(rect.random_point(rng))


class TestModels:
    def test_stationary_never_moves(self):
        model = Stationary()
        assert model.step(Point(3, 3), 100.0) == Point(3, 3)

    def test_random_walk_moves_at_speed(self, env):
        bounds = Rect(0, 0, 1000, 1000)
        model = RandomWalk(bounds, speed=2.0,
                           rng=env.random.stream("walk"),
                           turn_interval=1e9)
        start = Point(500, 500)
        end = model.step(start, 3.0)
        assert distance(start, end) == pytest.approx(6.0, rel=1e-6)

    def test_random_walk_stays_in_bounds(self, env):
        bounds = Rect(0, 0, 20, 20)
        model = RandomWalk(bounds, speed=5.0, rng=env.random.stream("walk"))
        position = Point(10, 10)
        for _ in range(200):
            position = model.step(position, 1.0)
            assert bounds.contains(position)

    def test_random_walk_negative_speed_rejected(self, env):
        with pytest.raises(ValueError):
            RandomWalk(Rect(0, 0, 1, 1), -1.0, env.random.stream("walk"))

    def test_random_waypoint_reaches_and_pauses(self, env):
        bounds = Rect(0, 0, 50, 50)
        model = RandomWaypoint(bounds, env.random.stream("rwp"),
                               min_speed=1.0, max_speed=1.0, max_pause=5.0)
        position = Point(25, 25)
        positions = []
        for _ in range(500):
            position = model.step(position, 1.0)
            positions.append(position)
        # The node must have moved and must have paused at least once
        # (consecutive identical positions while pausing).
        assert len({(p.x, p.y) for p in positions}) > 5
        assert any(a == b for a, b in zip(positions, positions[1:],
                                          strict=False))

    def test_random_waypoint_invalid_speeds(self, env):
        with pytest.raises(ValueError):
            RandomWaypoint(Rect(0, 0, 1, 1), env.random.stream("rwp"),
                           min_speed=2.0, max_speed=1.0)

    def test_path_follower_walks_the_polyline(self):
        path = PathFollower([Point(0, 0), Point(10, 0), Point(10, 10)],
                            speed=5.0)
        position = Point(0, 0)
        position = path.step(position, 1.0)
        assert position == Point(5, 0)
        position = path.step(position, 2.0)  # 5 to corner, 5 up
        assert position == Point(10, 5)
        position = path.step(position, 10.0)
        assert position == Point(10, 10)
        assert path.finished

    def test_path_follower_loop_restarts(self):
        path = PathFollower([Point(0, 0), Point(4, 0)], speed=2.0, loop=True)
        position = Point(0, 0)
        for _ in range(10):
            position = path.step(position, 1.0)
        assert not path.finished

    def test_path_follower_needs_two_points(self):
        with pytest.raises(ValueError):
            PathFollower([Point(0, 0)], speed=1.0)

    def test_bus_route_is_looping(self):
        bus = BusRoute([Point(0, 0), Point(100, 0), Point(100, 100)])
        assert not bus.finished
        position = Point(0, 0)
        for _ in range(1000):
            position = bus.step(position, 1.0)
        assert not bus.finished  # loops forever

    def test_linear_crossing_completes_once(self):
        crossing = LinearCrossing(Point(0, 0), Point(10, 0), speed=2.0)
        position = Point(0, 0)
        position = crossing.step(position, 3.0)
        assert position == Point(6, 0)
        position = crossing.step(position, 5.0)
        assert position == Point(10, 0)
        assert crossing.finished
        assert crossing.step(position, 5.0) == Point(10, 0)

    def test_linear_crossing_speed_positive(self):
        with pytest.raises(ValueError):
            LinearCrossing(Point(0, 0), Point(1, 0), speed=0.0)


class TestWorld:
    def test_add_and_query_nodes(self, env, world):
        world.add_node("a", Point(0, 0))
        world.add_node("b", Point(3, 4))
        assert world.distance_between("a", "b") == 5.0
        assert len(world) == 2
        assert "a" in world

    def test_duplicate_node_rejected(self, world):
        world.add_node("a", Point(0, 0))
        with pytest.raises(ValueError):
            world.add_node("a", Point(1, 1))

    def test_remove_node(self, world):
        world.add_node("a", Point(0, 0))
        world.remove_node("a")
        assert "a" not in world
        with pytest.raises(KeyError):
            world.remove_node("a")

    def test_batch_add_and_remove_notify_once(self, world):
        reports = []
        world.on_moves(reports.append)
        nodes = world.add_nodes([("b", Point(1, 1), None),
                                 ("a", Point(-5, 2), None)])
        assert [node.node_id for node in nodes] == ["b", "a"]
        assert world.bounds.contains(nodes[1].position)
        world.remove_nodes(["a", "b"])
        assert [(report.added, report.removed) for report in reports] == [
            (("b", "a"), ()), ((), ("a", "b"))]
        assert len(world) == 0

    def test_batch_reports_the_nodes_placed_before_a_failure(self, world):
        reports = []
        world.on_moves(reports.append)
        world.add_node("a", Point(0, 0))
        with pytest.raises(ValueError):
            world.add_nodes([("b", Point(1, 1), None),
                             ("a", Point(2, 2), None)])
        with pytest.raises(KeyError):
            world.remove_nodes(["b", "missing"])
        assert [(report.added, report.removed) for report in reports] == [
            (("a",), ()), (("b",), ()), ((), ("b",))]
        assert list(node.node_id for node in world) == ["a"]

    def test_nodes_within_radius(self, world):
        world.add_node("center", Point(100, 100))
        world.add_node("near", Point(103, 100))
        world.add_node("far", Point(150, 100))
        found = world.nodes_within("center", 10.0)
        assert [node.node_id for node in found] == ["near"]

    def test_out_of_bounds_placement_clamped(self, world):
        node = world.add_node("a", Point(-50, 500))
        assert world.bounds.contains(node.position)

    def test_movement_advances_with_time(self, env, world):
        world.add_node("walker", Point(0, 100),
                       LinearCrossing(Point(0, 100), Point(100, 100), 2.0))
        env.run(until=10.0)
        walker = world.node("walker")
        assert walker.position.x == pytest.approx(20.0, abs=1e-6)

    def test_movement_listener_fires(self, env, world):
        calls = []
        world.on_moves(lambda report: calls.append(env.now))
        world.add_node("walker", Point(0, 0),
                       LinearCrossing(Point(0, 0), Point(10, 0), 1.0))
        env.run(until=2.0)
        assert calls  # at least the add + ticks

    def test_stationary_world_stops_notifying(self, env, world):
        world.add_node("rock", Point(5, 5))
        calls = []
        world.on_moves(lambda report: calls.append(env.now))
        env.run(until=5.0)
        assert calls == []  # no movement -> no notifications

    def test_move_node_teleports(self, env, world):
        world.add_node("a", Point(0, 0))
        world.move_node("a", Point(50, 50))
        assert world.node("a").position == Point(50, 50)

    def test_stop_halts_ticks(self, env, world):
        world.add_node("walker", Point(0, 0),
                       LinearCrossing(Point(0, 0), Point(100, 0), 1.0))
        env.run(until=2.0)
        world.stop()
        x_at_stop = world.node("walker").position.x
        env.run(until=50.0)
        assert world.node("walker").position.x == x_at_stop

    def test_node_repr(self, world):
        node = world.add_node("a", Point(1, 2))
        assert "a" in repr(node)


class TestModelSwap:
    """A tick steps only the nodes whose model moves them, so swapping
    a live node's model must change which nodes a tick steps."""

    def test_swap_in_and_out_of_stationary(self, env, world):
        world.add_node("a", Point(10, 10),
                       LinearCrossing(Point(10, 10), Point(190, 10), 1.0))
        world.add_node("b", Point(10, 50))
        world.add_node("c", Point(10, 90),
                       LinearCrossing(Point(10, 90), Point(190, 90), 1.0))
        moved = []
        world.on_moves(lambda report: moved.append(report.moved))
        env.run(until=0.5)
        assert moved == [("a", "c")]
        world.node("b").model = LinearCrossing(Point(10, 50),
                                               Point(190, 50), 1.0)
        env.run(until=1.0)
        # b moves at the very next tick, between a and c as in the world.
        assert moved[1:] == [("a", "b", "c")]
        assert world.node("b").position == Point(10.5, 50)
        world.node("b").model = Stationary()
        env.run(until=2.0)
        assert moved[2:] == [("a", "c")] * 2
        assert world.node("b").position == Point(10.5, 50)

    def test_removed_node_is_not_stepped(self, env, world):
        node = world.add_node("a", Point(10, 10))
        world.remove_node("a")
        node.model = LinearCrossing(Point(10, 10), Point(100, 10), 1.0)
        env.run(until=2.0)
        assert node.position == Point(10, 10)
