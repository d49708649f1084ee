"""An open link costs what it carries.

A crowd holds thousands of pooled links that sit open and idle, so a
link at rest must hold no receive state it does not use, a closed pair
must be freed by reference counting rather than wait for the cyclic
collector, and none of this may change when a piconet slot is released
or in which order receivers wake.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.community import protocol
from repro.community.connections import BLUETOOTH_POOL_CAP
from repro.community.profile import ProfileStore
from repro.community.server import SERVICE_NAME, CommunityServer
from repro.eval.testbed import Testbed
from repro.mobility import Point
from repro.net import Connection
from repro.peerhood.daemon import PHD_PORT, PeerHoodDaemon
from repro.peerhood.library import PeerHoodLibrary
from repro.radio import BLUETOOTH

#: Bytes one idle pooled link may hold: its two halves, since the
#: server half answers through a method its server bound once and no
#: process waits on its receive.  Two empty deques per half and the
#: halves' instance dicts came to about 3.9 KB a link, the halves and
#: a parked server process to about 1.0-1.1 KB; today it is about
#: 0.45 KB on CPython 3.10-3.12.
IDLE_LINK_BYTES = 768


def _neighbourhood(peers: int, *, seed: int = 5) -> tuple[Testbed, object]:
    """Bluetooth members in one room, discovery settled and the
    observer's pool emptied."""
    bed = Testbed(seed=seed, technologies=("bluetooth",))
    alice = bed.add_member("alice", ["music"], position=Point(100.0, 100.0))
    for index in range(peers):
        bed.add_member(f"p{index}", ["chess"],
                       position=Point(101.0 + index, 100.0))
    bed.run(20.0)
    pool = alice.app.client.pool
    for device_id in pool.connected_ids():
        pool.drop(device_id)
    bed.run(1.0)
    return bed, alice


def _slaves(bed: Testbed, device_id: str) -> list[str]:
    plugin = bed.devices[device_id].daemon.plugins[BLUETOOTH.name]
    return sorted(plugin.bt.piconet.slaves)


class TestIdleLinkCost:
    def test_idle_pooled_link_stays_under_byte_bound(self):
        peers = 4
        bed, alice = _neighbourhood(peers)
        pool = alice.app.client.pool
        tracemalloc.start()
        try:
            for index in range(peers):
                bed.execute(pool.ensure(f"p{index}"))
            bed.run(1.0)  # the links sit idle
            gc.collect()
            opened = tracemalloc.get_traced_memory()[0]
            for index in range(peers):
                pool.drop(f"p{index}")
            gc.collect()
            closed = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            bed.stop()
        per_link = (opened - closed) / peers
        assert 0 < per_link < IDLE_LINK_BYTES


class TestPiconetSlots:
    """Every way a paged link ends frees its slot, as before the close
    hook replaced the per-instance ``close`` wrapper."""

    def _open(self, bed: Testbed, alice, peer: str):
        local = bed.execute(alice.app.client.pool.ensure(peer))
        assert peer in _slaves(bed, "alice")
        return local, local.peer

    def test_local_close_releases(self):
        bed, alice = _neighbourhood(2)
        local, _ = self._open(bed, alice, "p0")
        self._open(bed, alice, "p1")
        local.close()
        assert _slaves(bed, "alice") == ["p1"]
        bed.stop()

    def test_remote_close_releases(self):
        bed, alice = _neighbourhood(2)
        self._open(bed, alice, "p0")
        _, remote = self._open(bed, alice, "p1")
        remote.close()
        assert _slaves(bed, "alice") == ["p0"]
        bed.stop()

    def test_break_releases(self):
        bed, alice = _neighbourhood(2)
        local, _ = self._open(bed, alice, "p0")
        self._open(bed, alice, "p1")
        bed.world.move_node("p0", Point(190.0, 190.0))
        with pytest.raises(ConnectionError):
            local.send({"op": "ping"})
        assert _slaves(bed, "alice") == ["p1"]
        bed.stop()

    def test_drop_peer_releases_from_either_side(self):
        bed, alice = _neighbourhood(2)
        self._open(bed, alice, "p0")
        self._open(bed, alice, "p1")
        # Each side also serves the other's pooled link.
        assert alice.device.stack.drop_peer("p0") == 2
        assert _slaves(bed, "alice") == ["p1"]
        assert bed.devices["p1"].stack.drop_peer("alice") == 2
        assert _slaves(bed, "alice") == []
        bed.stop()

    def test_pool_eviction_releases_the_least_recently_used(self):
        peers = BLUETOOTH_POOL_CAP + 1
        bed, alice = _neighbourhood(peers)
        pool = alice.app.client.pool
        evicted = pool.evicted_total
        for index in range(peers):
            bed.execute(pool.ensure(f"p{index}"))
        assert pool.evicted_total == evicted + 1
        # The evicted link's slot is free: the slaves are the live links.
        assert len(pool.connected_ids()) == BLUETOOTH_POOL_CAP
        assert _slaves(bed, "alice") == pool.connected_ids()
        bed.stop()

    def test_second_link_to_a_peer_keeps_its_slot(self):
        """Two links to one peer share its slot, which frees only when
        the last of them closes."""
        bed, alice = _neighbourhood(1)
        pooled, _ = self._open(bed, alice, "p0")
        plugin = bed.devices["alice"].daemon.plugins[BLUETOOTH.name]
        query = bed.execute(plugin.connect("p0", PHD_PORT))
        query.close()
        assert _slaves(bed, "alice") == ["p0"]
        pooled.close()
        assert _slaves(bed, "alice") == []
        bed.stop()

    def test_repeated_close_releases_once(self):
        bed, alice = _neighbourhood(1)
        local, _ = self._open(bed, alice, "p0")
        local.close()
        bed.execute(alice.app.client.pool.ensure("p0"))
        local.close()  # a stale handle: the new link keeps its slot
        assert _slaves(bed, "alice") == ["p0"]
        bed.stop()


def _pair(env, linked_pair, port: str = "svc") -> tuple[Connection, Connection]:
    """One link a -> b on ``port``, opened in a process; returns both
    halves.  ``svc`` gets a bare listener, which leaves the server half
    alone; another port needs its own listener on b."""
    stack_a, stack_b = linked_pair
    if port == "svc":
        stack_b.unlisten("svc")
        stack_b.listen("svc", lambda half: None)

    def client():
        connection = yield from stack_a.connect("b", port, BLUETOOTH)
        return connection

    process = env.spawn(client())
    env.run(until=env.now + 30.0)
    return process.result, process.result.peer


def _wait(connection: Connection, woken: list, label: object) -> None:
    """Park one receiver on ``connection`` that records what woke it."""
    connection.recv().signal.wait(lambda payload: woken.append((label,
                                                                payload)))


class TestReceiveOrder:
    def test_inbox_is_fifo_under_a_backlog(self, env, linked_pair):
        client, server = _pair(env, linked_pair)
        for index in range(40):
            client.send({"n": index})
        env.run(until=env.now + 5.0)
        assert server.pending() == 40
        received: list = []
        for _ in range(40):
            _wait(server, received, "r")
        assert [payload["n"] for _, payload in received] == list(range(40))
        assert server.pending() == 0

    def test_waiters_are_served_fifo(self, env, linked_pair):
        client, server = _pair(env, linked_pair)
        woken: list = []
        for label in range(5):
            _wait(server, woken, label)
        for index in range(5):
            client.send({"n": index})
        env.run(until=env.now + 5.0)
        assert woken == [(label, {"n": label}) for label in range(5)]

    def test_close_wakes_every_waiter_with_none_in_order(self, env,
                                                         linked_pair):
        client, server = _pair(env, linked_pair)
        woken: list = []
        for label in range(4):
            _wait(server, woken, ("server", label))
        for label in range(2):
            _wait(client, woken, ("client", label))
        client.close()
        # The peer half closes inside the client's close, so its
        # receivers wake first.
        assert woken == [(("server", 0), None), (("server", 1), None),
                         (("server", 2), None), (("server", 3), None),
                         (("client", 0), None), (("client", 1), None)]
        with pytest.raises(ConnectionError):
            server.recv()

    def test_drop_peer_wakes_in_creation_order(self, env, linked_pair):
        """Halves to one peer close in creation order, not in address
        order.  A pair freed before each next one opens lets that one
        reuse a lower address, so addresses stop following creation."""
        stack_a, _ = linked_pair
        pairs = []
        for _ in range(8):
            dummy = _pair(env, linked_pair)
            pairs.append(_pair(env, linked_pair))
            dummy[0].close()
            del dummy
            gc.collect()
        woken: list = []
        for index, (local, remote) in enumerate(pairs):
            _wait(local, woken, (index, "local"))
            _wait(remote, woken, (index, "remote"))
        assert stack_a.drop_peer("b") == len(pairs)
        assert [label for label, _ in woken] == [
            (index, side) for index in range(len(pairs))
            for side in ("remote", "local")]


class TestClosedPairIsFreedByRefcount:
    def test_no_connection_left_for_the_collector(self, env, linked_pair,
                                                  medium):
        # Device b also runs a daemon (the control port) and a
        # community server, whose halves answer through a handler.
        daemon = PeerHoodDaemon(env, medium, linked_pair[1], "b", [])
        CommunityServer(PeerHoodLibrary(daemon), ProfileStore()).start()
        for port, payload in (
                ("svc", {"n": 1}),
                (SERVICE_NAME,
                 protocol.make_request(protocol.PS_GETONLINEMEMBERLIST)),
                (PHD_PORT, {"op": "get_services"})):
            client, server = _pair(env, linked_pair, port)
            client.send(payload)
            env.run(until=env.now + 1.0)
            # A server half answered: its reply is in.
            assert port == "svc" or client.pending() == 1, port
            enabled = gc.isenabled()
            gc.disable()
            try:
                gc.collect()  # free what earlier code left, for real
                gc.set_debug(gc.DEBUG_SAVEALL)
                client.close()
                del client, server
                gc.collect()
                left = [obj for obj in gc.garbage
                        if isinstance(obj, Connection)]
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                if enabled:
                    gc.enable()
            assert left == [], port
