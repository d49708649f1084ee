"""Tests for the evaluation harness: testbed, workloads, Table 8,
ablations, the paper testbed catalogue and reporting."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.eval.ablations import (
    run_scan_interval_sweep,
    run_semantics_ablation,
    run_technology_ablation,
)
from repro.eval.paperbed import (
    HARDWARE_SPECS,
    SOFTWARE_SPECS,
    build_paper_testbed,
)
from repro.eval.reporting import format_table, seconds
from repro.eval.table8 import (
    PAPER_TABLE8,
    format_table8,
    run_peerhood_column,
    run_sns_column,
)
from repro.eval.testbed import Testbed
from repro.eval.workloads import populate_neighborhood, random_interests
from repro.mobility import LinearCrossing, Point
from repro.simenv import Delay, Signal, WaitSignal
from repro.sns.devices import NOKIA_N810
from repro.sns.sites import FACEBOOK_2008


class TestTestbed:
    def test_duplicate_device_rejected(self, bed):
        bed.add_device("a")
        with pytest.raises(ValueError):
            bed.add_device("a")

    def test_default_placement_keeps_cluster_in_bt_range(self, bed):
        for index in range(7):
            bed.add_device(f"d{index}")
        ids = [f"d{index}" for index in range(7)]
        for a in ids:
            for b in ids:
                if a != b:
                    assert bed.world.distance_between(a, b) <= 15.0

    def test_member_handle_exposes_ids(self, bed):
        member = bed.add_member("alice", ["x"])
        assert member.device_id == "alice"
        assert member.member_id == "alice"

    def test_member_without_login_raises_on_member_id(self, bed):
        member = bed.add_member("alice", ["x"], auto_login=False)
        with pytest.raises(RuntimeError):
            _ = member.member_id

    def test_execute_timeout(self, bed):
        from repro.simenv import Delay

        def forever():
            while True:
                yield Delay(10.0)

        with pytest.raises(TimeoutError):
            bed.execute(forever(), timeout=5.0)

    def test_execute_propagates_exceptions_and_keeps_running(self, bed):
        def failing():
            yield from ()
            raise ValueError("bad op")

        with pytest.raises(ValueError):
            bed.execute(failing())
        bed.run(5.0)  # must not raise SimulationError afterwards

    def test_gprs_testbed_registers_gateway(self):
        bed = Testbed(seed=1, technologies=("gprs",))
        assert bed.medium.has_gateway("gprs")
        bed.stop()

    def test_execute_idle_raises_without_reaching_deadline(self, bed):
        bed.world.stop()
        bed.run(1.0)
        start = bed.env.now

        def stuck():
            yield WaitSignal(Signal("never"))

        with pytest.raises(RuntimeError, match="idle"):
            bed.execute(stuck(), timeout=600.0)
        assert bed.env.now < start + 600.0

    def test_execute_returns_at_completion_not_deadline(self, bed):
        start = bed.env.now

        def short():
            yield Delay(1.25)
            return "done"

        assert bed.execute(short(), timeout=600.0) == "done"
        assert bed.env.now == start + 1.25
        assert bed.env.queue.peek_time() == start + 1.5  # next world tick


def _step_loop_execute(bed: Testbed, generator, timeout: float):
    """``Testbed.execute`` as one ``env.step()`` per event: the reference."""
    env = bed.env
    process = env.spawn(generator, name="testbed.execute")
    env.acknowledge_failure(process)
    process.done.wait(lambda _value: None)
    deadline = env.now + timeout
    while process.alive:
        if not env.step():
            raise RuntimeError("simulation went idle with the "
                               "operation still pending")
        if env.now > deadline:
            raise TimeoutError(
                f"operation still running after {timeout} simulated seconds")
    return process.result


def _run_loop_execute(bed: Testbed, generator, timeout: float):
    return bed.execute(generator, timeout=timeout)


_times = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5, 6.0]),
                   st.floats(0.0, 12.0, allow_nan=False))
_steps = st.lists(st.one_of(
    st.tuples(st.just("delay"), _times),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("child"), _times),
    st.tuples(st.just("fail"), st.just(0.0))), max_size=6)
_schedules = st.fixed_dictionaries({
    "stop_world": st.booleans(),
    "timers": st.lists(_times, max_size=6),
    "signals": st.lists(st.one_of(st.none(), _times), min_size=3, max_size=3),
    "ops": st.lists(st.tuples(_steps, st.one_of(
        st.sampled_from([0.0, 1.0, 5.0, 600.0]),
        st.floats(0.0, 20.0, allow_nan=False))), min_size=1, max_size=2),
})


def _replay(schedule: dict, execute) -> list:
    """Run ``schedule``'s ops through ``execute``; what each left behind."""
    bed = Testbed(seed=5)
    env = bed.env
    if schedule["stop_world"]:
        bed.world.stop()
    log: list = []
    for when in schedule["timers"]:
        env.call_in(when, log.append, when)
    signals = [Signal(f"s{index}") for index in range(3)]
    for signal, when in zip(signals, schedule["signals"]):
        if when is not None:
            env.call_in(when, signal.fire, when)

    def child(seconds):
        yield Delay(seconds)
        return env.now

    def op(steps):
        seen = []
        for kind, value in steps:
            if kind == "delay":
                yield Delay(value)
            elif kind == "wait":
                seen.append((yield WaitSignal(signals[int(value)])))
            elif kind == "child":
                seen.append((yield env.spawn(child(value))))
            else:
                raise ValueError(f"op failed at {env.now}")
            seen.append(env.now)
        return seen

    outcomes = []
    for steps, timeout in schedule["ops"]:
        try:
            result = ("ok", execute(bed, op(steps), timeout))
        except (RuntimeError, TimeoutError, ValueError) as exc:
            result = (type(exc).__name__, str(exc))
        outcomes.append((result, env.now, env.events_processed,
                         env.queue.peek_time()))
    return [outcomes, log]


class TestExecuteOnTheRunLoop:
    @settings(deadline=None, max_examples=200)
    @given(schedule=_schedules)
    def test_matches_the_step_loop(self, schedule):
        assert (_replay(schedule, _run_loop_execute)
                == _replay(schedule, _step_loop_execute))


def _poll_wait_for_groups(bed: Testbed, _member, condition, timeout: float):
    """``Testbed.wait_for_groups`` as a re-test after every event: the
    reference."""
    env = bed.env
    deadline = env.now + timeout
    while not condition():
        if not env.step():
            raise RuntimeError("simulation went idle with the "
                               "group wait still pending")
        if env.now > deadline:
            raise TimeoutError(
                f"group wait still running after {timeout} simulated seconds")
    return env.now


def _wait_for_groups(bed: Testbed, member, condition, timeout: float):
    return bed.wait_for_groups(member, condition, timeout=timeout)


#: Walker paths that enter and then leave the observer's range.
_CROSSINGS = {"bluetooth": (Point(80, 100), Point(125, 100), 1.0),
              "wlan": (Point(20, 100), Point(190, 100), 2.0)}

_rooms = st.fixed_dictionaries({
    "seed": st.integers(0, 1000),
    "technology": st.sampled_from(["bluetooth", "wlan"]),
    "members": st.integers(2, 6),
    "walker": st.booleans(),
    "condition": st.sampled_from(["joined", "left", "complete"]),
    "target": st.integers(0, 5),
    "start": st.sampled_from([0.0, 7.5, 30.0]),
    "stop_in": st.one_of(st.none(), st.floats(0.0, 120.0, allow_nan=False)),
    "refresh_in": st.one_of(st.none(), st.floats(0.0, 60.0, allow_nan=False)),
    "timeout": st.one_of(st.sampled_from([0.0, 5.0, 200.0]),
                         st.floats(0.0, 200.0, allow_nan=False)),
})


def _wait_in_room(room: dict, wait) -> tuple:
    """Build ``room``, wait on its condition; where and how it ended."""
    bed = Testbed(seed=room["seed"], technologies=(room["technology"],))
    observer = bed.add_member("m0", ["football"])
    for index in range(1, room["members"]):
        bed.add_member(f"m{index}", ["football"])
    if room["walker"]:
        start, end, speed = _CROSSINGS[room["technology"]]
        bed.add_member("walker", ["football"], position=start,
                       model=LinearCrossing(start, end, speed))
    bed.run(room["start"])
    if room["stop_in"] is not None:  # the queue drains: the wait may go idle
        bed.env.call_in(room["stop_in"], bed.stop)
    if room["refresh_in"] is not None:  # drops, then re-adds, in one event
        bed.env.call_in(room["refresh_in"], observer.app.engine.refresh)
    everyone = set(bed.members)
    others = sorted(everyone - {"m0"})
    target = others[room["target"] % len(others)]
    if room["condition"] == "left" and room["walker"]:
        target = "walker"
    app = observer.app
    seen_target: list[bool] = []

    def joined():
        return target in app.group_members("football")

    def left():
        if joined():
            seen_target.append(True)
            return False
        return bool(seen_target)

    condition = {"joined": joined, "left": left,
                 "complete": lambda: set(app.group_members("football"))
                 == everyone}[room["condition"]]
    try:
        outcome = ("ok", wait(bed, observer, condition, room["timeout"]))
    except (RuntimeError, TimeoutError) as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, bed.env.now, bed.env.events_processed


#: The refresh at 30 s drops the walker and re-adds it in one event, so
#: "left" holds inside that event but not after it.
_ROOM = {"seed": 3, "technology": "bluetooth", "members": 2, "walker": True,
         "condition": "left", "target": 0, "start": 0.0, "stop_in": None,
         "refresh_in": 30.0, "timeout": 200.0}


class TestWaitForGroups:
    @settings(deadline=None, max_examples=40)
    @given(room=_rooms)
    @example(room=_ROOM)
    @example(room={**_ROOM, "technology": "wlan", "members": 6,  # goes idle
                   "condition": "complete", "stop_in": 1.0})
    def test_matches_the_per_event_poll(self, room):
        assert (_wait_in_room(room, _wait_for_groups)
                == _wait_in_room(room, _poll_wait_for_groups))


class TestWorkloads:
    def test_random_interests_bounds(self, bed):
        rng = bed.env.random.stream("t")
        for _ in range(50):
            interests = random_interests(rng)
            assert 1 <= len(interests) <= 4
            assert len(set(interests)) == len(interests)

    def test_populate_neighborhood_shared_interest(self, bed):
        members = populate_neighborhood(bed, 5, shared_interest="football")
        assert len(members) == 5
        for member in members:
            assert "football" in member.app.profile.interests
        bed.run(60.0)
        group = members[0].app.group_members("football")
        assert len(group) == 5


class TestPaperTestbed:
    def test_specs_match_tables_4_and_5(self):
        assert SOFTWARE_SPECS[0].software == "PeerHood"
        assert SOFTWARE_SPECS[0].version == "Version 0.2"
        names = [spec.name for spec in HARDWARE_SPECS]
        assert names == ["Desktop PC1", "Desktop PC2",
                         "Laptop (IBM ThinkPad T40)"]
        assert HARDWARE_SPECS[0].memory_mb == 1005.0
        assert HARDWARE_SPECS[1].processor.startswith("Intel(R) Pentium(R) III")

    def test_paper_testbed_forms_football_group(self):
        bed, members = build_paper_testbed(seed=2)
        bed.run(60.0)
        group = members["pc1"].app.group_members("football")
        assert group == ["pc1", "pc2", "t40"]
        bed.stop()

    def test_paper_testbed_is_bluetooth_only(self):
        bed, members = build_paper_testbed(seed=2)
        assert list(members["pc1"].device.daemon.plugins) == ["bluetooth"]
        bed.stop()


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["A", "Long header"],
                             [["1", "2"], ["333", "4"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "Long header" in lines[1]
        assert len({len(line) for line in lines[1:2]}) == 1

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["A"], [["1", "2"]])

    def test_seconds_formatting(self):
        assert seconds(57.6) == "58 Seconds"


class TestTable8:
    def test_sns_column_deterministic(self):
        a = run_sns_column(FACEBOOK_2008, NOKIA_N810, seed=1, trials=2)
        b = run_sns_column(FACEBOOK_2008, NOKIA_N810, seed=1, trials=2)
        assert a == b

    def test_peerhood_column_matches_paper_shape(self):
        column = run_peerhood_column(seed=0, trials=2)
        paper = PAPER_TABLE8["PeerHood Community"]
        assert column.join_s == 0.0
        assert column.search_s == pytest.approx(paper.search_s, rel=0.5)
        assert column.total_s < 60.0

    def test_peerhood_faster_than_every_sns_cell(self):
        phc = run_peerhood_column(seed=0, trials=2)
        sns = run_sns_column(FACEBOOK_2008, NOKIA_N810, seed=0, trials=2)
        assert phc.total_s < sns.total_s

    def test_format_table8_includes_paper_reference(self):
        measured = {"PeerHood Community": PAPER_TABLE8["PeerHood Community"]}
        text = format_table8(measured)
        assert "paper: 11" in text
        assert "Average Group search Time" in text


class TestAblations:
    def test_semantics_ablation_merges_groups(self):
        result = run_semantics_ablation(seed=1)
        assert "biking" in result.groups_before
        assert set(result.biking_members_before) == {"ann", "cat"}
        assert set(result.merged_members_after) == {"ann", "ben", "cat"}

    def test_technology_ablation_ordering(self):
        rows = {row.technology: row for row in run_technology_ablation(seed=1)}
        assert rows["wlan"].formation_time_s < rows["bluetooth"].formation_time_s
        assert rows["gprs"].cost > 0.0
        assert rows["bluetooth"].cost == 0.0
        assert rows["wlan"].cost == 0.0

    def test_scan_interval_sweep_monotone_tail(self):
        points = run_scan_interval_sweep(intervals=(2.0, 20.0), seed=1)
        assert points[0].formation_time_s < points[1].formation_time_s
