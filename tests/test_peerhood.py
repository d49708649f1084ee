"""Tests for the PeerHood middleware: daemon, library, plugins,
monitoring and seamless connectivity (Table 3 functionality)."""

from __future__ import annotations

import pytest

from repro.eval.testbed import Testbed
from repro.eval.workloads import crowd_bounds, populate_crowd
from repro.mobility import LinearCrossing, Point
from repro.peerhood import (
    PHD_PORT,
    SeamlessConnectivityManager,
    ServiceExistsError,
    ServiceInfo,
    ServiceNotFoundError,
)
from repro.radio.bluetooth import PiconetFullError
from repro.radio.medium import NotReachableError
from repro.simenv import Environment, SimulationError


@pytest.fixture
def pair():
    """Two idle PeerHood devices 5 m apart, discovery running."""
    bed = Testbed(seed=3)
    a = bed.add_device("a", position=Point(100, 100))
    b = bed.add_device("b", position=Point(105, 100))
    yield bed, a, b
    bed.stop()


class TestServiceInfo:
    def test_make_sorts_attributes(self):
        info = ServiceInfo.make("svc", "dev", {"b": "2", "a": "1"})
        assert info.attributes == (("a", "1"), ("b", "2"))

    def test_attribute_lookup(self):
        info = ServiceInfo.make("svc", "dev", {"version": "0.2"})
        assert info.attribute("version") == "0.2"
        assert info.attribute("missing", "default") == "default"


class TestDeviceDiscovery:
    def test_devices_find_each_other(self, pair):
        bed, a, b = pair
        bed.run(30.0)
        assert [n.device_id for n in a.library.get_device_listing()] == ["b"]
        assert [n.device_id for n in b.library.get_device_listing()] == ["a"]

    def test_discovery_takes_realistic_time(self, pair):
        bed, a, b = pair
        bed.run(0.5)  # inquiry still in progress
        assert a.library.get_device_listing() == []
        bed.run(30.0)
        assert a.library.get_device_listing()

    def test_neighbor_knows_technologies(self, pair):
        bed, a, b = pair
        bed.run(30.0)
        neighbor = a.library.get_device_listing()[0]
        assert neighbor.technologies == {"bluetooth", "wlan"}

    def test_device_leaving_is_lost(self, pair):
        bed, a, b = pair
        bed.run(30.0)
        bed.world.move_node("b", Point(250, 250))
        bed.run(40.0)
        assert a.library.get_device_listing() == []

    def test_lost_callback_fires(self, pair):
        bed, a, b = pair
        lost = []
        a.daemon.on_device_lost(lost.append)
        bed.run(30.0)
        bed.world.move_node("b", Point(250, 250))
        bed.run(40.0)
        assert lost == ["b"]

    def test_found_callback_fires_once(self, pair):
        bed, a, b = pair
        found = []
        a.daemon.on_device_found(found.append)
        bed.run(60.0)
        assert found == ["b"]


class TestServiceDiscovery:
    def test_remote_services_listed_with_attributes(self, pair):
        bed, a, b = pair
        b.library.register_service("Chess", {"skill": "beginner"},
                                   lambda conn: None)
        bed.run(30.0)
        services = a.library.get_service_listing("b")
        assert [s.name for s in services] == ["Chess"]
        assert services[0].attribute("skill") == "beginner"

    def test_local_services_in_listing(self, pair):
        bed, a, b = pair
        a.library.register_service("Local", None, lambda conn: None)
        assert [s.name for s in a.library.get_service_listing()] == ["Local"]

    def test_duplicate_registration_rejected(self, pair):
        bed, a, _ = pair
        a.library.register_service("S", None, lambda conn: None)
        with pytest.raises(ServiceExistsError):
            a.library.register_service("S", None, lambda conn: None)

    def test_unregister_disappears_locally(self, pair):
        bed, a, _ = pair
        a.library.register_service("S", None, lambda conn: None)
        a.library.unregister_service("S")
        assert a.library.get_service_listing() == []

    def test_devices_with_service(self, pair):
        bed, a, b = pair
        b.library.register_service("Wanted", None, lambda conn: None)
        bed.run(30.0)
        assert a.library.devices_with_service("Wanted") == ["b"]
        assert a.library.devices_with_service("Other") == []

    def test_phd_port_always_listening(self, pair):
        bed, a, _ = pair
        assert a.stack.listening_on(PHD_PORT)


class TestConnections:
    def test_connect_to_remote_service(self, pair):
        bed, a, b = pair
        received = []

        def handler(conn):
            def serve():
                payload = yield conn.recv()
                received.append(payload)
            bed.env.spawn(serve())

        b.library.register_service("Echo", None, handler)
        bed.run(30.0)

        def client():
            connection = yield from a.library.connect("b", "Echo")
            connection.send({"ping": 1})
            return connection

        bed.execute(client())
        bed.run(5.0)
        assert received == [{"ping": 1}]

    def test_require_advertised_rejects_unknown(self, pair):
        bed, a, b = pair
        bed.run(30.0)

        def client():
            yield from a.library.connect("b", "Ghost",
                                         require_advertised=True)

        with pytest.raises(ServiceNotFoundError):
            bed.execute(client())

    def test_connect_prefers_cheapest_technology(self, pair):
        bed, a, b = pair
        b.library.register_service("Echo", None, lambda conn: None)
        bed.run(30.0)

        def client():
            connection = yield from a.library.connect("b", "Echo")
            return connection.technology.name

        assert bed.execute(client()) == "bluetooth"

    def test_connect_unreachable_raises(self, pair):
        bed, a, b = pair
        bed.run(30.0)
        bed.world.move_node("b", Point(250, 250))

        def client():
            try:
                yield from a.library.connect("b", "anything")
            except NotReachableError:
                return "unreachable"

        assert bed.execute(client()) == "unreachable"

    def test_piconet_capacity_enforced_through_plugin(self):
        bed = Testbed(seed=5, technologies=("bluetooth",))
        hub = bed.add_device("hub", position=Point(100, 100))
        for index in range(8):
            spoke = bed.add_device(f"s{index}",
                                   position=Point(101 + index * 0.5, 100))
            spoke.library.register_service("Echo", None, lambda conn: None)
        bed.run(40.0)

        def fill():
            kept = []
            try:
                for index in range(8):
                    connection = yield from hub.library.connect(
                        f"s{index}", "Echo")
                    kept.append(connection)
            except PiconetFullError:
                return len(kept)
            return len(kept)

        assert bed.execute(fill(), timeout=600.0) == 7
        bed.stop()


class TestMonitoring:
    def test_monitor_reports_appear_and_disappear(self):
        bed = Testbed(seed=11, technologies=("bluetooth",))
        observer = bed.add_device("obs", position=Point(100, 100))
        appeared, disappeared = [], []
        observer.library.monitor("walker",
                                 on_appear=appeared.append,
                                 on_disappear=disappeared.append)
        # Walker crosses through the observer's Bluetooth range.
        bed.add_device("walker", position=Point(80, 100),
                       model=LinearCrossing(Point(80, 100), Point(130, 100),
                                            speed=1.0))
        bed.run(120.0)
        assert appeared == ["walker"]
        assert disappeared == ["walker"]
        bed.stop()

    def test_monitor_cancel_stops_notifications(self, pair):
        bed, a, b = pair
        events = []
        monitor = a.library.monitor("b", on_appear=events.append)
        monitor.cancel()
        bed.run(30.0)
        assert events == []
        assert monitor.appearances == 0

    def test_monitor_visible_property(self, pair):
        bed, a, b = pair
        monitor = a.library.monitor("b")
        assert not monitor.visible
        bed.run(30.0)
        assert monitor.visible


class TestSeamlessConnectivity:
    def _handover_bed(self):
        bed = Testbed(seed=13)  # bluetooth + wlan
        a = bed.add_device("a", position=Point(100, 100))
        b = bed.add_device("b", position=Point(102, 100))
        b.library.register_service("Echo", None, lambda conn: None)
        bed.run(30.0)
        return bed, a, b

    def test_handover_bt_to_wlan_when_walking_away(self):
        bed, a, b = self._handover_bed()
        manager = SeamlessConnectivityManager(a.daemon)
        handovers = []

        def client():
            connection = yield from a.daemon.plugins["bluetooth"].connect(
                "b", "Echo")
            return connection

        connection = bed.execute(client())
        manager.supervise(connection,
                          on_handover=lambda c, t: handovers.append(t))
        # b walks out of Bluetooth range but stays in WLAN range.
        bed.world.node("b").model = LinearCrossing(Point(102, 100),
                                                   Point(130, 100), 2.0)
        bed.run(60.0)
        assert handovers == ["wlan"]
        assert connection.technology.name == "wlan"
        assert not connection.closed
        # The migrated connection still carries data.
        connection.send({"still": "alive"})
        bed.stop()

    def test_no_alternative_records_failure(self):
        bed = Testbed(seed=17, technologies=("bluetooth",))
        a = bed.add_device("a", position=Point(100, 100))
        b = bed.add_device("b", position=Point(102, 100))
        b.library.register_service("Echo", None, lambda conn: None)
        bed.run(30.0)
        manager = SeamlessConnectivityManager(a.daemon)

        def client():
            connection = yield from a.daemon.plugins["bluetooth"].connect(
                "b", "Echo")
            return connection

        connection = bed.execute(client())
        manager.supervise(connection)
        bed.world.move_node("b", Point(200, 200))
        bed.run(10.0)
        assert manager.history
        assert not manager.history[-1].succeeded
        bed.stop()

    def test_closed_connections_pruned(self):
        bed, a, b = self._handover_bed()
        manager = SeamlessConnectivityManager(a.daemon)

        def client():
            connection = yield from a.daemon.plugins["bluetooth"].connect(
                "b", "Echo")
            return connection

        connection = bed.execute(client())
        manager.supervise(connection)
        connection.close()
        bed.run(5.0)
        assert manager.supervised_count == 0
        bed.stop()


def _crowd_outcome(members: int = 64, seconds: float = 30.0) -> dict:
    """Everything discovery leaves behind in the golden crowd run."""
    bed = Testbed(seed=11, bounds=crowd_bounds(members), scan_interval=1.0)
    crowd = populate_crowd(bed, members, shared_interest="music")
    bed.run(seconds)
    daemons = {device_id: handle.daemon
               for device_id, handle in bed.devices.items()}
    outcome = {
        "tables": {device_id: [(n.device_id, sorted(n.technologies),
                                n.last_seen, n.services_fresh)
                               for n in daemon.device_listing()]
                   for device_id, daemon in daemons.items()},
        "scans": {device_id: ({name: plugin.scan_count
                               for name, plugin in daemon.plugins.items()},
                              daemon.rediscovery_probes)
                  for device_id, daemon in daemons.items()},
        "probe_logs": [member.app.engine.probe_log for member in crowd],
        "groups": [member.app.group_members("music") for member in crowd],
        "positions": [(node.node_id, node.position.x, node.position.y)
                      for node in bed.world],
        "events": bed.env.events_processed,
    }
    bed.stop()
    return outcome


class TestDiscoveryLoops:
    """The daemon's scan loops, run as kernel cohort callbacks."""

    def test_cohorts_change_only_the_event_count(self, monkeypatch):
        cohorts = _crowd_outcome()
        # Every cohort call a plain event: the kernel before cohorts.
        monkeypatch.setattr(Environment, "call_in_cohort",
                            Environment.call_in)
        plain = _crowd_outcome()
        assert cohorts["events"] < plain["events"]
        del cohorts["events"], plain["events"]
        assert cohorts == plain

    def test_failing_scan_ends_only_its_own_loop(self):
        bed = Testbed(seed=3, technologies=("wlan",), scan_interval=5.0)
        for index, name in enumerate("abc"):
            bed.add_device(name, position=Point(100 + 3 * index, 100))

        def explode(device_id):
            raise RuntimeError(f"found {device_id}")

        bed.devices["b"].daemon.on_device_found(explode)
        with pytest.raises(SimulationError,
                           match=r"process 'phd:b:wlan' failed at t=1\.000000"):
            bed.run(10.0)
        bed.run(20.0)
        assert [bed.devices[name].daemon.plugins["wlan"].scan_count
                for name in "abc"] == [4, 1, 4]
        bed.stop()

    def test_restart_keeps_one_loop(self):
        bed = Testbed(seed=3, technologies=("wlan",), scan_interval=5.0)
        a = bed.add_device("a", position=Point(100, 100))
        b = bed.add_device("b", position=Point(103, 100))
        bed.run(12.0)  # a's scan at 12.0 s is in flight
        a.daemon.stop()
        bed.run(0.5)
        a.daemon.start()
        scans = [a.daemon.plugins["wlan"].scan_count,
                 b.daemon.plugins["wlan"].scan_count]
        bed.run(60.0)
        assert (a.daemon.plugins["wlan"].scan_count - scans[0]
                == b.daemon.plugins["wlan"].scan_count - scans[1] == 10)
        bed.stop()

    def test_stop_during_a_scan_freezes_the_table(self):
        bed = Testbed(seed=3, technologies=("wlan",), scan_interval=5.0)
        a = bed.add_device("a", position=Point(100, 100))
        bed.add_device("b", position=Point(103, 100))
        bed.run(12.5)  # a's scan runs from 12.0 s to 13.0 s
        a.daemon.stop()
        bed.world.move_node("b", Point(190, 190))
        bed.run(0.6)
        assert a.daemon.knows("b")
        a.daemon.start()  # the loop ended with the scan: it starts again
        bed.run(1.1)
        assert not a.daemon.knows("b")
        bed.stop()
