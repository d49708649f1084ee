"""Unit tests for technologies, standards, the medium, BT and GPRS."""

from __future__ import annotations

import pytest

from repro.mobility import Point
from repro.radio import (
    BLUETOOTH,
    BluetoothAdapter,
    GPRS,
    GprsGateway,
    Medium,
    Piconet,
    PiconetFullError,
    Technology,
    WLAN,
    all_technologies,
    wlan_standards_table,
)


class TestTechnology:
    def test_transfer_time_includes_latency_and_serialisation(self):
        tech = Technology("t", 10.0, 1000.0, 0.5, 0.0, 0.0)
        # 125 bytes = 1000 bits = 1 s at 1000 bps, plus 0.5 s latency.
        assert tech.transfer_time(125) == pytest.approx(1.5)

    def test_transfer_time_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            BLUETOOTH.transfer_time(-1)

    def test_in_range(self):
        assert BLUETOOTH.link_quality(9.9) > 0.0
        assert BLUETOOTH.link_quality(10.1) == 0.0

    def test_wide_area_always_in_range(self):
        assert GPRS.link_quality(1e9) == 1.0

    def test_link_quality_monotone_decreasing(self):
        qualities = [BLUETOOTH.link_quality(d) for d in (0.0, 3.0, 7.0, 9.9)]
        assert qualities == sorted(qualities, reverse=True)
        assert BLUETOOTH.link_quality(0.0) == 1.0
        assert BLUETOOTH.link_quality(15.0) == 0.0

    def test_wide_area_quality_is_one(self):
        assert GPRS.link_quality(12345.0) == 1.0

    def test_transfer_cost(self):
        assert GPRS.transfer_cost(1_000_000) == pytest.approx(GPRS.cost_per_mb)
        assert BLUETOOTH.transfer_cost(1_000_000) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Technology("bad", -1.0, 1000.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Technology("bad", 10.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Technology("bad", 10.0, 10.0, -0.1, 0.0, 0.0)


class TestStandards:
    def test_table1_has_five_rows_in_paper_order(self):
        rows = wlan_standards_table()
        assert [row.standard for row in rows] == [
            "IEEE 802.11", "IEEE 802.11a", "IEEE 802.11b",
            "IEEE 802.11g", "IEEE 802.16/a"]

    def test_table1_rates_match_paper(self):
        by_name = {row.standard: row for row in wlan_standards_table()}
        assert by_name["IEEE 802.11"].max_rate_mbps == 2.0
        assert by_name["IEEE 802.11a"].max_rate_mbps == 54.0
        assert by_name["IEEE 802.11b"].max_rate_mbps == 11.0
        assert by_name["IEEE 802.11g"].max_rate_mbps == 54.0

    def test_wimax_uses_des3_aes(self):
        wimax = wlan_standards_table()[-1]
        assert wimax.security == ("DES3", "AES")

    def test_all_technologies_registry(self):
        techs = all_technologies()
        assert {"bluetooth", "wlan", "gprs", "irda", "zigbee",
                "rfid"} <= set(techs)
        assert techs["gprs"].needs_gateway
        assert not techs["bluetooth"].needs_gateway

    def test_bluetooth_range_is_10m_class(self):
        assert BLUETOOTH.range_m == 10.0

    def test_gprs_rate_within_spec_envelope(self):
        # The paper cites 9.6-171 kbps for GPRS.
        assert 9_600 <= GPRS.bandwidth_bps <= 171_000

    def test_irda_shorter_range_than_bluetooth(self):
        techs = all_technologies()
        assert techs["irda"].range_m < BLUETOOTH.range_m


class TestMedium:
    def test_reachable_within_range(self, world, medium):
        world.add_node("a", Point(0, 0))
        world.add_node("b", Point(5, 0))
        medium.attach("a", BLUETOOTH)
        medium.attach("b", BLUETOOTH)
        assert medium.reachable("a", "b", "bluetooth")

    def test_not_reachable_beyond_range(self, world, medium):
        world.add_node("a", Point(0, 0))
        world.add_node("b", Point(50, 0))
        medium.attach("a", BLUETOOTH)
        medium.attach("b", BLUETOOTH)
        assert not medium.reachable("a", "b", "bluetooth")
        medium.attach("a", WLAN)
        medium.attach("b", WLAN)
        assert medium.reachable("a", "b", "wlan")

    def test_missing_adapter_means_unreachable(self, world, medium):
        world.add_node("a", Point(0, 0))
        world.add_node("b", Point(1, 0))
        medium.attach("a", BLUETOOTH)
        assert not medium.reachable("a", "b", "bluetooth")

    def test_disabled_adapter_unreachable(self, world, medium):
        world.add_node("a", Point(0, 0))
        world.add_node("b", Point(1, 0))
        medium.attach("a", BLUETOOTH)
        adapter_b = medium.attach("b", BLUETOOTH)
        adapter_b.enabled = False
        assert not medium.reachable("a", "b", "bluetooth")

    def test_self_not_reachable(self, world, medium):
        world.add_node("a", Point(0, 0))
        medium.attach("a", BLUETOOTH)
        assert not medium.reachable("a", "a", "bluetooth")

    def test_duplicate_attach_rejected(self, world, medium):
        world.add_node("a", Point(0, 0))
        medium.attach("a", BLUETOOTH)
        with pytest.raises(ValueError):
            medium.attach("a", BLUETOOTH)

    def test_detach_removes_adapter(self, world, medium):
        world.add_node("a", Point(0, 0))
        medium.attach("a", BLUETOOTH)
        medium.detach("a", "bluetooth")
        assert medium.adapter("a", "bluetooth") is None

    def test_batch_attach_and_detach_change_the_roster_once(self, world,
                                                            medium):
        for name, x in (("a", 0.0), ("b", 5.0), ("c", 8.0)):
            world.add_node(name, Point(100 + x, 100))
        assert medium.neighbors("a", "bluetooth") == []
        version = medium._topology_version
        adapters = medium.attach_all(["c", "a", "b"], BLUETOOTH)
        assert [adapter.device_id for adapter in adapters] == ["c", "a", "b"]
        assert medium._topology_version == version + 1
        assert medium.neighbors("a", "bluetooth") == ["b", "c"]
        medium.detach_all(["b", "c"], "bluetooth")
        assert medium._topology_version == version + 2
        assert medium.neighbors("a", "bluetooth") == []
        assert medium.adapter("b", "bluetooth") is None

    def test_batch_attach_keeps_what_it_gave_before_a_duplicate(self, world,
                                                               medium):
        world.add_node("a", Point(100, 100))
        world.add_node("b", Point(103, 100))
        medium.attach("b", BLUETOOTH)
        with pytest.raises(ValueError):
            medium.attach_all(["a", "b"], BLUETOOTH)
        assert medium.adapter("a", "bluetooth") is not None
        assert medium.neighbors("b", "bluetooth") == ["a"]

    def test_gprs_needs_gateway(self, world, medium):
        world.add_node("a", Point(0, 0))
        world.add_node("b", Point(190, 190))
        medium.attach("a", GPRS)
        medium.attach("b", GPRS)
        assert not medium.reachable("a", "b", "gprs")
        medium.register_gateway("gprs")
        assert medium.reachable("a", "b", "gprs")

    def test_neighbors_sorted_and_range_limited(self, world, medium):
        world.add_node("center", Point(100, 100))
        for name, dx in (("zeta", 3.0), ("alpha", 5.0), ("far", 80.0)):
            world.add_node(name, Point(100 + dx, 100))
            medium.attach(name, BLUETOOTH)
        medium.attach("center", BLUETOOTH)
        assert medium.neighbors("center", "bluetooth") == ["alpha", "zeta"]

    def test_link_quality_zero_when_unreachable(self, world, medium):
        world.add_node("a", Point(0, 0))
        world.add_node("b", Point(100, 100))
        medium.attach("a", BLUETOOTH)
        medium.attach("b", BLUETOOTH)
        assert medium.link_quality("a", "b", "bluetooth") == 0.0

    def test_record_transfer_accumulates_cost(self, world, medium):
        world.add_node("a", Point(0, 0))
        adapter = medium.attach("a", GPRS)
        medium.record_transfer("a", "gprs", 500_000)
        medium.record_transfer("a", "gprs", 500_000)
        assert adapter.bytes_sent == 1_000_000
        assert adapter.cost_incurred == pytest.approx(GPRS.cost_per_mb)

    def test_adapters_of(self, world, medium):
        world.add_node("a", Point(0, 0))
        medium.attach("a", BLUETOOTH)
        medium.attach("a", WLAN)
        assert {adapter.technology.name
                for adapter in medium.adapters_of("a")} == {"bluetooth", "wlan"}

    @pytest.mark.parametrize(("technology", "x", "y", "in_range"), [
        # hypot gives 10.0 but x*x + y*y rounds to 100.00000000000001.
        (BLUETOOTH, 7.896044033001984, 6.136162369828049, False),
        # hypot gives 60.00000000000001 but x*x + y*y rounds to 3600.0.
        (WLAN, 49.90316007295606, 33.311778918768724, True),
    ], ids=["bluetooth", "wlan"])
    def test_reachable_agrees_with_neighbors_at_the_range_edge(
            self, world, medium, technology, x, y, in_range):
        """Discovery must never list a peer that a connect refuses, nor
        hide one it accepts: both use the squared-distance test."""
        world.add_node("a", Point(0.0, 0.0))
        world.add_node("b", Point(x, y))
        medium.attach("a", technology)
        medium.attach("b", technology)
        name = technology.name
        assert medium.neighbors("a", name) == (["b"] if in_range else [])
        assert medium.neighbors("b", name) == (["a"] if in_range else [])
        assert medium.reachable("a", "b", name) is in_range
        assert medium.reachable("b", "a", name) is in_range


class TestBluetooth:
    def test_piconet_limits_to_seven_slaves(self):
        piconet = Piconet("master")
        for index in range(7):
            piconet.add_slave(f"slave{index}")
        with pytest.raises(PiconetFullError):
            piconet.add_slave("one-too-many")

    def test_piconet_re_add_is_idempotent(self):
        piconet = Piconet("master")
        piconet.add_slave("s")
        piconet.add_slave("s")
        assert len(piconet) == 1

    def test_piconet_release_frees_slot(self):
        piconet = Piconet("master")
        for index in range(7):
            piconet.add_slave(f"slave{index}")
        piconet.remove_slave("slave0")
        piconet.add_slave("new")  # no raise

    def test_master_cannot_be_own_slave(self):
        with pytest.raises(ValueError):
            Piconet("m").add_slave("m")

    def test_slot_frees_with_the_last_link(self):
        piconet = Piconet("master")
        piconet.add_slave("s")
        piconet.add_slave("s")
        piconet.remove_slave("s")
        assert piconet.slaves == frozenset({"s"})
        piconet.remove_slave("s")
        assert len(piconet) == 0
        piconet.remove_slave("s")  # nothing open: a no-op
        assert len(piconet) == 0

    def test_cap_counts_peers_not_links(self):
        piconet = Piconet("master")
        for index in range(Piconet.MAX_ACTIVE_SLAVES):
            piconet.add_slave(f"slave{index}")
        piconet.add_slave("slave0")  # a second link takes no new slot
        piconet.remove_slave("slave0")
        with pytest.raises(PiconetFullError):
            piconet.add_slave("new")  # slave0 still holds its slot
        piconet.remove_slave("slave0")
        piconet.add_slave("new")

    def test_inquiry_grows_with_responders(self, env):
        adapter = BluetoothAdapter("a", env.random.stream("bt"))
        quiet = adapter.inquiry_duration(0)
        crowded = adapter.inquiry_duration(10)
        assert crowded > quiet
        assert quiet >= BLUETOOTH.discovery_time_s

    def test_inquiry_negative_responders_rejected(self, env):
        adapter = BluetoothAdapter("a", env.random.stream("bt"))
        with pytest.raises(ValueError):
            adapter.inquiry_duration(-1)

    def test_page_duration_at_least_setup(self, env):
        adapter = BluetoothAdapter("a", env.random.stream("bt"))
        assert adapter.page_duration() >= BLUETOOTH.setup_time_s


class TestGprsGateway:
    def test_register_and_lookup(self):
        gateway = GprsGateway()
        gateway.register("a")
        gateway.register("b")
        gateway.register("c")
        assert gateway.lookup("a") == ["b", "c"]

    def test_deregister(self):
        gateway = GprsGateway()
        gateway.register("a")
        gateway.deregister("a")
        assert gateway.registered == frozenset()

    def test_relay_time_meters_traffic(self):
        gateway = GprsGateway()
        before = gateway.relay_time(1000)
        assert before > 0
        assert gateway.relayed_bytes == 1000
        assert gateway.relayed_messages == 1

    def test_relay_negative_rejected(self):
        with pytest.raises(ValueError):
            GprsGateway().relay_time(-5)

    def test_total_cost_counts_both_directions(self):
        gateway = GprsGateway()
        gateway.relay_time(500_000)
        assert gateway.total_cost() == pytest.approx(
            GPRS.transfer_cost(1_000_000))


class TestMediumCaching:
    """The medium memoizes reachability verdicts and neighbour
    listings per topology epoch; these are the regression tests that
    every cache invalidates on the event that makes it stale."""

    @pytest.fixture
    def pair(self, world, medium):
        world.add_node("a", Point(0.0, 0.0))
        world.add_node("b", Point(5.0, 0.0))
        medium.attach("a", BLUETOOTH)
        medium.attach("b", BLUETOOTH)
        return world, medium

    def test_reachable_survives_repeat_queries(self, pair):
        world, medium = pair
        assert medium.reachable("a", "b", "bluetooth")
        assert medium.reachable("a", "b", "bluetooth")  # cached path

    def test_distance_cache_invalidated_by_movement(self, pair):
        world, medium = pair
        assert medium.reachable("a", "b", "bluetooth")
        # Walk b out of Bluetooth range: the memoized reachability
        # verdict must not survive the move.
        world.move_node("b", Point(150.0, 0.0))
        assert not medium.reachable("a", "b", "bluetooth")
        world.move_node("b", Point(3.0, 0.0))
        assert medium.reachable("a", "b", "bluetooth")

    def test_neighbors_cache_invalidated_by_movement(self, pair):
        world, medium = pair
        assert medium.neighbors("a", "bluetooth") == ["b"]
        world.move_node("b", Point(150.0, 0.0))
        assert medium.neighbors("a", "bluetooth") == []

    def test_caches_invalidated_by_adapter_toggle(self, pair):
        world, medium = pair
        assert medium.neighbors("a", "bluetooth") == ["b"]
        # Plain attribute assignment is the API faults.py and the BT
        # plugin use; the notifying setter must drop topology caches.
        medium.adapter("b", "bluetooth").enabled = False
        assert not medium.reachable("a", "b", "bluetooth")
        assert medium.neighbors("a", "bluetooth") == []
        medium.adapter("b", "bluetooth").enabled = True
        assert medium.neighbors("a", "bluetooth") == ["b"]

    def test_caches_invalidated_by_attach_detach(self, world, medium):
        world.add_node("a", Point(0.0, 0.0))
        world.add_node("b", Point(5.0, 0.0))
        medium.attach("a", BLUETOOTH)
        assert medium.neighbors("a", "bluetooth") == []
        medium.attach("b", BLUETOOTH)
        assert medium.neighbors("a", "bluetooth") == ["b"]
        medium.detach("b", "bluetooth")
        assert medium.neighbors("a", "bluetooth") == []

    def test_neighbors_returns_a_fresh_list(self, pair):
        world, medium = pair
        listing = medium.neighbors("a", "bluetooth")
        listing.append("intruder")
        assert medium.neighbors("a", "bluetooth") == ["b"]

    def test_link_quality_tracks_movement(self, pair):
        world, medium = pair
        near = medium.link_quality("a", "b", "bluetooth")
        world.move_node("b", Point(9.0, 0.0))
        far = medium.link_quality("a", "b", "bluetooth")
        assert 0.0 < far < near
