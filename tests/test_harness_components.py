"""Tests for Table 8 harness components, the pool, and radio extras."""

from __future__ import annotations

import pytest

from repro.community import protocol
from repro.eval.table8 import ConsoleUi, build_sns, run_table8
from repro.eval.testbed import Testbed
from repro.mobility import Point
from repro.radio import all_technologies
from repro.sns.sites import FACEBOOK_2008, HI5_2008


class TestTable8Components:
    def test_console_ui_defaults_are_positive(self):
        ui = ConsoleUi()
        assert ui.nav_s > 0
        assert ui.scan_s_per_item > 0
        assert ui.menu_read_s > 0
        assert ui.profile_read_s > 0

    def test_build_sns_seeds_the_test_group(self):
        server = build_sns(FACEBOOK_2008, seed=1, group_members=12)
        group = server.database.group("England Football")
        assert len(group.members) >= 12
        assert server.database.user("tester0")

    def test_build_sns_site_selection_changes_weights(self):
        fb = build_sns(FACEBOOK_2008, seed=1)
        hi5 = build_sns(HI5_2008, seed=1)
        assert fb.site.profile_cached
        assert not hi5.site.profile_cached

    def test_run_table8_is_deterministic(self):
        first = run_table8(seed=5, trials=1)
        second = run_table8(seed=5, trials=1)
        for column in first:
            assert first[column] == second[column]


class TestPoolBehaviour:
    @pytest.fixture
    def pooled(self):
        bed = Testbed(seed=307, technologies=("bluetooth",))
        alice = bed.add_member("alice", ["x"])
        bed.add_member("bob", ["x"])
        bed.run(30.0)
        yield bed, alice
        bed.stop()

    def test_drop_closes_connection(self, pooled):
        bed, alice = pooled
        bed.execute(alice.app.view_all_members())
        connection = alice.app.pool.connection_to("bob")
        alice.app.pool.drop("bob")
        assert connection.closed
        assert alice.app.pool.connection_to("bob") is None

    def test_broken_connection_reopened_on_next_ensure(self, pooled):
        bed, alice = pooled
        bed.execute(alice.app.view_all_members())
        first = alice.app.pool.connection_to("bob")
        first.close()

        def reensure():
            connection = yield from alice.app.pool.ensure("bob")
            return connection

        second = bed.execute(reensure())
        assert second is not first
        assert not second.closed
        assert alice.app.pool.opened_total == 2

    def test_close_all_empties_pool(self, pooled):
        bed, alice = pooled
        bed.execute(alice.app.view_all_members())
        alice.app.pool.close_all()
        assert len(alice.app.pool) == 0
        assert alice.app.pool.connected_ids() == []


class TestRadioExtras:
    def test_zigbee_slower_than_wlan_for_bulk(self):
        techs = all_technologies()
        bulk = 1_000_000
        assert (techs["zigbee"].transfer_time(bulk)
                > techs["wlan"].transfer_time(bulk))

    def test_rfid_is_near_field(self):
        techs = all_technologies()
        assert techs["rfid"].range_m <= 1.0
        assert techs["rfid"].link_quality(2.0) == 0.0

    def test_gprs_adapter_costs_accumulate_through_stack(self):
        bed = Testbed(seed=311, technologies=("gprs",))
        alice = bed.add_member("alice", ["x"])
        bed.add_member("bob", ["x"])
        bed.run(60.0)
        status = bed.execute(alice.app.send_message("bob", "s", "b"),
                             timeout=300.0)
        assert status == protocol.SUCCESSFULLY_WRITTEN
        adapter = bed.medium.adapter("alice", "gprs")
        assert adapter.bytes_sent > 0
        assert adapter.cost_incurred > 0.0
        assert bed.gateway.total_cost() > 0.0
        bed.stop()

    def test_irda_needs_near_contact_for_discovery(self):
        bed = Testbed(seed=313, technologies=("bluetooth",))
        a = bed.add_device("a", position=Point(100, 100))
        bed.add_device("b", position=Point(100.5, 100))
        techs = all_technologies()
        bed.medium.attach("a", techs["irda"])
        bed.medium.attach("b", techs["irda"])
        assert bed.medium.reachable("a", "b", "irda")
        bed.world.move_node("b", Point(102, 100))
        assert not bed.medium.reachable("a", "b", "irda")
        bed.stop()
