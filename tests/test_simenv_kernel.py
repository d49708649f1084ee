"""Unit tests for the discrete-event kernel: clock, queue, environment."""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simenv import Environment, EventQueue, Signal, SimClock, SimulationError
from repro.simenv.clock import SimClock as Clock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(start=5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)

    def test_advance_forward(self):
        clock = SimClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_advance_to_same_time_allowed(self):
        clock = SimClock()
        clock.advance_to(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_advance_backwards_rejected(self):
        clock = SimClock()
        clock.advance_to(2.0)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)

    def test_repr_mentions_time(self):
        assert "now=" in repr(Clock())


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, lambda: fired.append(3))
        queue.push(1.0, lambda: fired.append(1))
        queue.push(2.0, lambda: fired.append(2))
        while queue:
            queue.pop().callback()
        assert fired == [1, 2, 3]

    def test_ties_broken_by_schedule_order(self):
        queue = EventQueue()
        fired = []
        for label in ("first", "second", "third"):
            queue.push(1.0, lambda label=label: fired.append(label))
        while queue:
            queue.pop().callback()
        assert fired == ["first", "second", "third"]

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        assert len(queue) == 1
        assert queue.pop().time == 2.0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 5.0

    def test_peek_time_empty_is_none(self):
        assert EventQueue().peek_time() is None

    def test_bool_false_when_all_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancel()
        assert not queue


class TestEventQueueEdges:
    """Ordering and cancel edges of the event queue."""

    def test_cancel_then_reschedule_identical_timestamp(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, lambda: fired.append("a"))
        doomed = queue.push(1.0, lambda: fired.append("doomed"))
        queue.push(1.0, lambda: fired.append("b"))
        doomed.cancel()
        # The replacement shares the timestamp but fires *after* the
        # survivors: sequence order is scheduling order, always.
        queue.push(1.0, lambda: fired.append("c"))
        while queue:
            queue.pop().callback()
        assert fired == ["a", "b", "c"]

    def test_far_future_events_preserve_order(self):
        queue = EventQueue()
        fired = []
        queue.push(1000.25, lambda: fired.append("far-late"))
        queue.push(0.1, lambda: fired.append("near"))
        queue.push(1000.0, lambda: fired.append("far-early"))
        while queue:
            queue.pop().callback()
        assert fired == ["near", "far-early", "far-late"]

    def test_cancelled_entry_at_shared_time_is_skipped(self):
        queue = EventQueue()
        fired = []
        doomed = queue.push(50.0, lambda: fired.append("doomed"))
        queue.push(50.0, lambda: fired.append("live"))
        doomed.cancel()
        assert queue.pop().callback() or fired == ["live"]
        assert not queue

    def test_cancel_after_pop_is_inert(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is event
        popped.cancel()  # late cancel of a fired event: no accounting
        assert len(queue) == 1
        assert queue.pop().time == 2.0

    def test_taken_slot_orders_by_its_own_sequence(self):
        queue = EventQueue()
        fired = []
        early = queue.take_sequence()
        queue.push(1.0, lambda: fired.append("pushed"))
        queue.push_slot(1.0, early, lambda: fired.append("slot"))
        while queue:
            queue.pop().callback()
        assert fired == ["slot", "pushed"]

    def test_held_handles_are_never_recycled(self, env: Environment):
        held = env.call_in(0.5, lambda: None)
        env.run()
        fresh = env.queue.push(9.0, lambda: None)
        assert fresh is not held

    @settings(max_examples=120, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("push"),
                  st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("cancel_fired"), st.integers(min_value=0)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("pop_before"),
                  st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False, allow_infinity=False)),
    ), min_size=1, max_size=60))
    def test_interleavings_preserve_time_sequence_order(self, ops):
        """Any schedule/cancel/pop interleaving matches a sorted model.

        Cancelling a handle whose event already fired changes neither
        the live count nor the pop order.
        """
        queue = EventQueue()
        model: list[tuple[float, int]] = []  # live (time, sequence)
        handles = {}
        fired = []  # handles of popped events
        sequence = 0
        floor = 0.0  # popped events only ever move forward in time
        for op in ops:
            if op[0] == "push":
                time = max(op[1], floor)
                handles[sequence] = queue.push(time, lambda: None)
                model.append((time, sequence))
                sequence += 1
            elif op[0] == "cancel":
                if model:
                    victim = model[op[1] % len(model)]
                    handles[victim[1]].cancel()
                    model.remove(victim)
            elif op[0] == "cancel_fired":
                if fired:
                    fired[op[1] % len(fired)].cancel()
            elif op[0] == "pop":
                if model:
                    expected = min(model)
                    event = queue.pop()
                    assert (event.time, event.sequence) == expected
                    model.remove(expected)
                    fired.append(event)
                    floor = expected[0]
                else:
                    with pytest.raises(IndexError):
                        queue.pop()
            else:
                until = op[1]
                expected = min(model) if model else None
                event = queue.pop_before(until)
                if expected is not None and expected[0] <= until:
                    assert event is not None
                    assert (event.time, event.sequence) == expected
                    model.remove(expected)
                    fired.append(event)
                    floor = expected[0]
                else:
                    assert event is None
            assert len(queue) == len(model)
        while model:
            expected = min(model)
            event = queue.pop()
            assert (event.time, event.sequence) == expected
            model.remove(expected)
        assert not queue


class TestEnvironment:
    def test_run_advances_time(self, env: Environment):
        env.call_in(5.0, lambda: None)
        assert env.run() == 5.0

    def test_run_until_stops_early(self, env: Environment):
        fired = []
        env.call_in(10.0, lambda: fired.append("late"))
        env.run(until=5.0)
        assert env.now == 5.0
        assert fired == []
        env.run(until=15.0)
        assert fired == ["late"]

    def test_run_until_advances_clock_when_idle(self, env: Environment):
        env.run(until=7.0)
        assert env.now == 7.0

    def test_run_ends_when_stop_fires(self, env: Environment):
        stop = Signal("stop")
        fired = []
        for when in (1.0, 2.0, 3.0):
            env.call_in(when, fired.append, when)
        env.call_in(2.0, stop.fire)
        assert env.run(until=10.0, stop=stop) == 2.0
        assert fired == [1.0, 2.0]
        assert env.queue.peek_time() == 3.0

    def test_run_with_fired_stop_fires_nothing(self, env: Environment):
        stop = Signal("stop")
        stop.fire()
        env.call_in(1.0, lambda: None)
        assert env.run(until=10.0, stop=stop) == 0.0
        assert env.events_processed == 0

    def test_run_with_stop_keeps_clock_when_idle(self, env: Environment):
        env.call_in(1.0, lambda: None)
        assert env.run(until=10.0, stop=Signal("never")) == 1.0
        assert env.now == 1.0

    def test_call_at_in_past_rejected(self, env: Environment):
        env.call_in(1.0, lambda: None)
        env.run()
        with pytest.raises(ValueError):
            env.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self, env: Environment):
        with pytest.raises(ValueError):
            env.call_in(-1.0, lambda: None)

    def test_call_with_args(self, env: Environment):
        got = []
        env.call_in(1.0, got.append, "value")
        env.run()
        assert got == ["value"]

    def test_step_returns_false_when_idle(self, env: Environment):
        assert env.step() is False

    def test_step_executes_one_event(self, env: Environment):
        fired = []
        env.call_in(1.0, lambda: fired.append(1))
        env.call_in(2.0, lambda: fired.append(2))
        assert env.step() is True
        assert fired == [1]

    def test_nested_scheduling_runs(self, env: Environment):
        fired = []

        def outer():
            fired.append("outer")
            env.call_in(1.0, lambda: fired.append("inner"))

        env.call_in(1.0, outer)
        env.run()
        assert fired == ["outer", "inner"]
        assert env.now == 2.0

    def test_unobserved_process_failure_raises(self, env: Environment):
        def exploding():
            yield from ()
            raise RuntimeError("boom")

        env.spawn(exploding(), name="exploder")
        with pytest.raises(SimulationError, match="exploder"):
            env.run()

    def test_determinism_same_seed_same_draws(self):
        draws_a = [Environment(seed=9).random.stream("s").random()
                   for _ in range(1)]
        draws_b = [Environment(seed=9).random.stream("s").random()
                   for _ in range(1)]
        assert draws_a == draws_b

    def test_repr(self, env: Environment):
        assert "Environment" in repr(env)


class _Boom(Exception):
    """A callback's own exception, which propagates out of ``run``."""


def _failing_process():
    yield from ()
    raise RuntimeError("boom")


def _play(program, cohort_call) -> list:
    """Fire ``program`` and log what happens, in order.

    Node ``i`` is ``(parent, kind, delay, action)``.  It is scheduled
    before the first run when ``parent`` names no earlier node, and by
    its parent's callback otherwise, with ``call_in`` for ``"plain"``
    and ``cohort_call(env, delay, callback)`` for ``"cohort"``: either
    ``Environment.call_in_cohort`` or, as the stand-in for the kernel
    before cohorts, ``Environment.call_in``.  Its callback logs ``(i,
    env.now)``, does its action and schedules its children.  Runs
    repeat, each with a fresh stop signal, until the queue is empty;
    each ends with a ``returned`` or a raised entry.
    """
    env = Environment()
    children: list[list[int]] = [[] for _ in program]
    for index, (parent, *_) in enumerate(program):
        if 0 <= parent < index:
            children[parent].append(index)
    log: list = []
    plain: list = []
    stops: list[Signal] = []

    def schedule(index: int) -> None:
        _, kind, delay, _ = program[index]
        if kind == "plain":
            plain.append(env.call_in(delay, fire, index))
        else:
            cohort_call(env, delay, partial(fire, index))

    def fire(index: int) -> None:
        log.append((index, env.now))
        action = program[index][3]
        if action == "stop" and not stops[-1].fired:
            stops[-1].fire()
        elif action == "fail":
            env.spawn(_failing_process(), name=f"fail{index}")
        elif action == "raise":
            raise _Boom(index)
        elif action == "cancel" and plain:
            plain[-1].cancel()
        for child in children[index]:
            schedule(child)

    for index, (parent, *_) in enumerate(program):
        if not 0 <= parent < index:
            schedule(index)
    while env.queue:
        stops.append(Signal("stop"))
        try:
            env.run(stop=stops[-1])
            log.append(("returned", env.now))
        except SimulationError as exc:
            log.append(("failed", str(exc)))
        except _Boom as exc:
            log.append(("raised", exc.args[0]))
    return log


_programs = st.lists(
    st.tuples(st.integers(-1, 24),
              st.sampled_from(["plain", "cohort", "cohort"]),
              st.sampled_from([0.0, 0.5, 1.0]),
              st.sampled_from([None, None, None, None,
                               "stop", "fail", "raise", "cancel"])),
    min_size=1, max_size=25)


class TestCohorts:
    """A cohort call fires exactly where a plain ``call_in`` would."""

    @settings(max_examples=300, deadline=None)
    @given(program=_programs)
    # A plain event scheduled between two members fires between them.
    @example(program=[(-1, "cohort", 1.0, None), (-1, "plain", 1.0, None),
                      (-1, "cohort", 1.0, None)])
    # A member that fires the run's stop signal ends the run.
    @example(program=[(-1, "cohort", 1.0, "stop"), (-1, "cohort", 1.0, None)])
    # A process failure raises before the next member fires.
    @example(program=[(-1, "cohort", 1.0, "fail"), (-1, "cohort", 1.0, None)])
    # A callback that raises leaves the rest of its cohort queued.
    @example(program=[(-1, "cohort", 1.0, "raise"), (-1, "cohort", 1.0, None)])
    # A cancelled event between two members is skipped.
    @example(program=[(-1, "plain", 0.5, None), (-1, "cohort", 1.0, "cancel"),
                      (-1, "plain", 1.0, None), (-1, "cohort", 1.0, None)])
    # A member due at the firing cohort's own time starts a new cohort.
    @example(program=[(-1, "cohort", 1.0, None), (0, "cohort", 0.0, None),
                      (-1, "cohort", 1.0, None), (1, "plain", 0.0, None)])
    def test_fires_in_plain_call_order(self, program):
        assert (_play(program, Environment.call_in_cohort)
                == _play(program, Environment.call_in))

    def test_members_due_together_are_one_event(self, env: Environment):
        fired = []
        for label in "abc":
            env.call_in_cohort(1.0, partial(fired.append, label))
        env.call_in_cohort(2.0, partial(fired.append, "d"))
        env.run()
        assert fired == ["a", "b", "c", "d"]
        assert env.events_processed == 2

    def test_step_fires_one_part(self, env: Environment):
        fired = []
        env.call_in_cohort(1.0, partial(fired.append, "a"))
        env.call_in_cohort(1.0, partial(fired.append, "b"))
        env.call_in(1.0, fired.append, "plain")
        env.call_in_cohort(1.0, partial(fired.append, "c"))
        assert env.step()
        assert fired == ["a", "b"]
        assert env.step()
        assert fired == ["a", "b", "plain"]
        assert env.step()
        assert fired == ["a", "b", "plain", "c"]
        assert not env.step()

    def test_negative_delay_rejected(self, env: Environment):
        with pytest.raises(ValueError):
            env.call_in_cohort(-0.5, lambda: None)
