"""Unit tests for generator processes, signals and timers."""

from __future__ import annotations

import pytest

from repro.simenv import (
    Delay,
    Environment,
    PeriodicTimer,
    Signal,
    WaitProcess,
    WaitSignal,
)


class TestDelayYield:
    def test_delay_suspends_for_virtual_time(self, env: Environment):
        trace = []

        def worker():
            trace.append(("start", env.now))
            yield Delay(2.5)
            trace.append(("end", env.now))
            return "done"

        process = env.spawn(worker())
        env.run()
        assert trace == [("start", 0.0), ("end", 2.5)]
        assert process.result == "done"

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Delay(-0.1)

    def test_zero_delay_allowed(self, env: Environment):
        def worker():
            yield Delay(0.0)
            return env.now

        process = env.spawn(worker())
        env.run()
        assert process.result == 0.0

    def test_result_before_finish_raises(self, env: Environment):
        def worker():
            yield Delay(1.0)

        process = env.spawn(worker())
        with pytest.raises(RuntimeError):
            _ = process.result


class TestSignals:
    def test_wait_signal_resumes_with_value(self, env: Environment):
        signal = Signal("test")

        def waiter():
            value = yield WaitSignal(signal)
            return value

        process = env.spawn(waiter())
        env.call_in(1.0, signal.fire, "payload")
        env.run()
        assert process.result == "payload"

    def test_signal_fire_twice_raises(self):
        signal = Signal()
        signal.fire()
        with pytest.raises(RuntimeError):
            signal.fire()

    def test_late_waiter_fires_immediately(self):
        signal = Signal()
        signal.fire("early")
        got = []
        signal.wait(got.append)
        assert got == ["early"]

    def test_signal_repr_shows_state(self):
        signal = Signal("named")
        assert "named" in repr(signal)
        signal.fire()
        assert "fired" in repr(signal)


class TestProcessComposition:
    def test_wait_for_child_process_result(self, env: Environment):
        def child():
            yield Delay(1.0)
            return 21

        def parent():
            value = yield env.spawn(child())
            return value * 2

        process = env.spawn(parent())
        env.run()
        assert process.result == 42

    def test_wait_process_wrapper(self, env: Environment):
        def child():
            yield Delay(1.0)
            return "x"

        def parent():
            child_process = env.spawn(child())
            value = yield WaitProcess(child_process)
            return value

        process = env.spawn(parent())
        env.run()
        assert process.result == "x"

    def test_child_exception_propagates_to_parent(self, env: Environment):
        def child():
            yield Delay(1.0)
            raise ValueError("from child")

        def parent():
            try:
                yield env.spawn(child())
            except ValueError as exc:
                return f"caught {exc}"

        process = env.spawn(parent())
        env.run()
        assert process.result == "caught from child"

    def test_failed_process_result_reraises(self, env: Environment):
        def failing():
            yield Delay(1.0)
            raise KeyError("lost")

        process = env.spawn(failing())
        # A waiter observes the failure, so run() does not raise.
        def observer():
            try:
                yield process
            except KeyError:
                return "observed"

        watcher = env.spawn(observer())
        env.run()
        assert watcher.result == "observed"
        with pytest.raises(KeyError):
            _ = process.result

    def test_yield_from_subgenerator(self, env: Environment):
        def inner():
            yield Delay(1.0)
            return 10

        def outer():
            value = yield from inner()
            yield Delay(1.0)
            return value + 5

        process = env.spawn(outer())
        env.run()
        assert process.result == 15
        assert env.now == 2.0

    def test_invalid_yield_raises_inside_process(self, env: Environment):
        def bad():
            try:
                yield "not a yieldable"
            except TypeError:
                return "typed"

        process = env.spawn(bad())
        env.run()
        assert process.result == "typed"

    def test_kill_stops_process(self, env: Environment):
        ticks = []

        def looper():
            while True:
                yield Delay(1.0)
                ticks.append(env.now)

        process = env.spawn(looper())
        env.run(until=3.5)
        process.kill()
        env.run(until=10.0)
        assert not process.alive
        assert ticks == [1.0, 2.0, 3.0]

    def test_process_repr(self, env: Environment):
        def worker():
            yield Delay(1.0)

        process = env.spawn(worker(), name="my-proc")
        assert "my-proc" in repr(process)
        env.run()
        assert "done" in repr(process)


class TestPeriodicTimer:
    def test_fires_on_interval(self, env: Environment):
        times = []
        PeriodicTimer(env, 2.0, lambda: times.append(env.now))
        env.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_stop_prevents_future_fires(self, env: Environment):
        times = []
        timer = PeriodicTimer(env, 1.0, lambda: times.append(env.now))
        env.run(until=2.5)
        timer.stop()
        env.run(until=10.0)
        assert times == [1.0, 2.0]
        assert not timer.running

    def test_stop_from_inside_callback(self, env: Environment):
        timer_holder = []

        def callback():
            timer_holder[0].stop()

        timer_holder.append(PeriodicTimer(env, 1.0, callback))
        env.run(until=5.0)
        assert timer_holder[0].fire_count == 1

    def test_invalid_interval_rejected(self, env: Environment):
        with pytest.raises(ValueError):
            PeriodicTimer(env, 0.0, lambda: None)


class TestRandomStreams:
    def test_named_streams_are_independent(self, env: Environment):
        a1 = env.random.stream("a").random()
        # Drawing from b must not disturb a's sequence.
        env.random.stream("b").random()
        a2 = env.random.stream("a").random()

        other = Environment(seed=42)
        b1 = other.random.stream("a").random()
        b2 = other.random.stream("a").random()
        assert (a1, a2) == (b1, b2)

    def test_different_names_different_sequences(self, env: Environment):
        assert (env.random.stream("x").random()
                != env.random.stream("y").random())

    def test_fork_derives_stable_child(self):
        from repro.simenv import RandomStreams

        child_a = RandomStreams(1).fork("device")
        child_b = RandomStreams(1).fork("device")
        assert child_a.seed == child_b.seed
        assert RandomStreams(1).fork("other").seed != child_a.seed
