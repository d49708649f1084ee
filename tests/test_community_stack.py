"""Integration tests for the community client/server protocol and the
dynamic group discovery engine, over the full simulated stack."""

from __future__ import annotations

import pytest

from repro.community import protocol
from repro.eval.testbed import Testbed
from repro.eval.workloads import populate_neighborhood
from repro.mobility import LinearCrossing, Point
from repro.net import messages
from repro.net.messages import FrameError, deserialize, serialize


class TestClientServerOperations:
    def test_get_online_members_aggregates_neighbourhood(self, bed, trio):
        alice, bob, carol = trio
        members = bed.execute(alice.app.view_all_members())
        assert [m["member_id"] for m in members] == ["bob", "carol"]

    def test_logged_out_member_not_listed(self, bed, trio):
        alice, bob, carol = trio
        bob.app.logout()
        members = bed.execute(alice.app.view_all_members())
        assert [m["member_id"] for m in members] == ["carol"]

    def test_interest_list_union_without_duplicates(self, bed, trio):
        alice, _, _ = trio
        interests = bed.execute(alice.app.view_interest_list())
        assert interests == ["football", "music", "movies"]

    def test_interested_members(self, bed, trio):
        alice, _, _ = trio
        members = bed.execute(
            alice.app.client.get_interested_members("movies"))
        assert [m["member_id"] for m in members] == ["bob", "carol"]

    def test_view_profile_records_viewer(self, bed, trio):
        alice, bob, _ = trio
        profile = bed.execute(alice.app.view_member_profile("bob"))
        assert profile["member_id"] == "bob"
        assert [view.viewer for view in bob.app.profile.viewers] == ["alice"]

    def test_view_unknown_profile_returns_none(self, bed, trio):
        alice, _, _ = trio
        assert bed.execute(alice.app.view_member_profile("nobody")) is None

    def test_comment_lands_on_remote_profile(self, bed, trio):
        alice, bob, _ = trio
        ok = bed.execute(alice.app.comment_profile("bob", "hello!"))
        assert ok
        assert [(c.author, c.text) for c in bob.app.profile.comments] == [
            ("alice", "hello!")]
        # The commented profile is visible to a later viewer.
        profile = bed.execute(alice.app.view_member_profile("bob"))
        assert profile["comments"] == [["alice", "hello!"]]

    def test_check_member_location(self, bed, trio):
        alice, _, _ = trio
        assert bed.execute(
            alice.app.client.check_member_location("carol")) == "carol"
        assert bed.execute(
            alice.app.client.check_member_location("nobody")) is None

    def test_trusted_friends_listing(self, bed, trio):
        alice, bob, _ = trio
        bob.app.accept_trusted("carol")
        trusted = bed.execute(alice.app.view_trusted_friends("bob"))
        assert trusted == ["carol"]

    def test_shared_content_requires_trust(self, bed, trio):
        alice, bob, _ = trio
        bob.app.share_file("mix.mp3", 9000)
        denied = bed.execute(alice.app.view_shared_content("bob"))
        assert denied == protocol.NOT_TRUSTED_YET
        bob.app.accept_trusted("alice")
        files = bed.execute(alice.app.view_shared_content("bob"))
        assert files == [{"name": "mix.mp3", "size": 9000}]

    def test_shared_content_unknown_member(self, bed, trio):
        alice, _, _ = trio
        assert bed.execute(
            alice.app.view_shared_content("ghost")) == protocol.NO_MEMBERS_YET

    def test_send_message_delivered_and_recorded(self, bed, trio):
        alice, bob, _ = trio
        status = bed.execute(alice.app.send_message("bob", "hi", "body"))
        assert status == protocol.SUCCESSFULLY_WRITTEN
        assert [(m.sender, m.subject, m.body) for m in bob.app.profile.inbox
                ] == [("alice", "hi", "body")]
        assert [(m.receiver, m.subject) for m in alice.app.profile.sent
                ] == [("bob", "hi")]

    def test_send_message_to_absent_member(self, bed, trio):
        alice, _, _ = trio
        status = bed.execute(alice.app.send_message("ghost", "s", "b"))
        assert status == protocol.NO_MEMBERS_YET

    def test_request_trust_denied_by_default_policy(self, bed, trio):
        alice, bob, _ = trio
        accepted = bed.execute(alice.app.client.request_trust("bob"))
        assert not accepted
        assert not bob.app.profile.trusts("alice")

    def test_operations_require_login(self, bed, trio):
        alice, _, _ = trio
        alice.app.logout()
        with pytest.raises(PermissionError):
            bed.execute(alice.app.view_member_profile("bob"))

    def test_connections_are_pooled_across_operations(self, bed, trio):
        alice, _, _ = trio
        bed.execute(alice.app.view_all_members())
        opened_after_first = alice.app.pool.opened_total
        bed.execute(alice.app.view_interest_list())
        assert alice.app.pool.opened_total == opened_after_first

    def test_server_counts_requests(self, bed, trio):
        _, bob, _ = trio
        before = bob.app.server.requests_served
        bed.execute(trio[0].app.view_all_members())
        assert bob.app.server.requests_served == before + 1


class TestBroadcastEncodesOnce:
    """A broadcast measures its request once; every server gets a copy."""

    @pytest.fixture
    def room(self):
        bed = Testbed(seed=17, technologies=("wlan",))
        members = populate_neighborhood(bed, 6, shared_interest="music")
        bed.run(30.0)
        client = members[0].app.client
        bed.execute(client.get_online_members())  # opens the pooled links
        yield bed, client, [member.device_id for member in members[1:]]
        bed.stop()

    @staticmethod
    def _charges(bed, device_id):
        """Bytes the medium records for ``device_id`` from now on."""
        charged = []
        record = bed.medium.record_transfer

        def spy(sender, technology_name, nbytes):
            if sender == device_id:
                charged.append(nbytes)
            record(sender, technology_name, nbytes)

        bed.medium.record_transfer = spy
        return charged

    @staticmethod
    def _received(bed, targets):
        """Requests each target's server handles from now on."""
        received = []
        for device_id in targets:
            server = bed.members[device_id].app.server
            handle = server.handle_request

            def spy(payload, remote_id="?", handle=handle):
                received.append(payload)
                return handle(payload, remote_id)

            server.handle_request = spy
        return received

    def test_each_target_is_charged_the_serialized_frame(self, room):
        bed, client, targets = room
        request = protocol.make_request(protocol.PS_GETINTERESTLIST)
        connections = [client.pool.connection_to(device_id)
                       for device_id in targets]
        before = [connection.bytes_sent for connection in connections]
        charged = self._charges(bed, client.device_id)
        replies = bed.execute(client._broadcast(request))
        size = len(serialize(request))
        assert len(replies) == len(targets) == 5
        assert [connection.bytes_sent - sent for connection, sent
                in zip(connections, before)] == [size] * 5
        assert charged == [size] * 5

    def test_each_server_gets_its_own_copy(self, room):
        bed, client, targets = room
        request = protocol.make_request(protocol.PS_GETONLINEMEMBERLIST)
        request["nested"] = {"tags": ["a", "b"]}
        received = self._received(bed, targets)
        bed.execute(client._broadcast(request))
        assert len(received) == 5
        assert all(payload == request and payload is not request
                   for payload in received)
        assert len({id(payload["nested"]["tags"]) for payload in received}) == 5
        received[0]["nested"]["tags"].append("c")
        received[1]["op"] = "changed"
        assert request == {"op": protocol.PS_GETONLINEMEMBERLIST,
                           "nested": {"tags": ["a", "b"]}}
        assert all(payload == request for payload in received[2:])

    def test_tuple_arrives_as_decoded_json(self, room):
        bed, client, targets = room
        request = protocol.make_request(protocol.PS_GETONLINEMEMBERLIST)
        request["pair"] = ("x", [1, 2])
        received = self._received(bed, targets)
        bed.execute(client._broadcast(request))
        expected = deserialize(serialize(request))
        assert expected["pair"] == ["x", [1, 2]]
        assert len(received) == 5
        assert all(payload == expected for payload in received)

    @pytest.mark.parametrize("fault", ["unserialisable", "oversized"])
    def test_frame_error_before_any_target_is_charged(self, room,
                                                      monkeypatch, fault):
        bed, client, _ = room
        request = protocol.make_request(protocol.PS_GETONLINEMEMBERLIST)
        if fault == "oversized":
            monkeypatch.setattr(messages, "MAX_FRAME_BYTES", 64)
            request["blob"] = "x" * 64
        else:
            request["blob"] = object()
        charged = self._charges(bed, client.device_id)
        attempts = client.retry_counters.attempts
        sent = client.requests_sent
        now = bed.env.now
        with pytest.raises(FrameError):
            bed.execute(client._broadcast(request))
        assert charged == []
        assert client.retry_counters.attempts == attempts
        assert client.requests_sent == sent
        assert bed.env.now == now


class TestDynamicGroupDiscovery:
    def test_groups_form_from_matching_interests(self, bed, trio):
        alice, bob, carol = trio
        assert alice.groups() == ["football", "music"]
        assert alice.app.group_members("football") == ["alice", "bob"]
        assert alice.app.group_members("music") == ["alice", "carol"]

    def test_views_are_symmetric(self, bed, trio):
        alice, bob, _ = trio
        assert alice.app.group_members("football") == \
            bob.app.group_members("football")

    def test_no_group_without_shared_interest(self, bed):
        loner = bed.add_member("dave", ["quantum knitting"])
        bed.run(30.0)
        assert loner.groups() == []

    def test_member_leaving_range_exits_groups(self, bed, trio):
        alice, bob, _ = trio
        bed.world.move_node("bob", Point(250, 250))
        bed.run(40.0)
        assert "bob" not in alice.app.group_members("football")

    def test_member_returning_rejoins(self, bed, trio):
        alice, bob, _ = trio
        original = Point(bed.world.node("bob").position.x,
                         bed.world.node("bob").position.y)
        bed.world.move_node("bob", Point(250, 250))
        bed.run(40.0)
        assert "bob" not in alice.app.group_members("football")
        bed.world.move_node("bob", original)
        bed.run(40.0)
        assert "bob" in alice.app.group_members("football")

    def test_probe_log_records_discoveries(self, bed, trio):
        alice, _, _ = trio
        probed = {record.device_id for record in alice.app.engine.probe_log}
        assert probed == {"bob", "carol"}
        for record in alice.app.engine.probe_log:
            assert record.finished_at >= record.started_at
            assert record.member_id in {"bob", "carol"}

    def test_late_login_found_by_retry(self, bed):
        alice = bed.add_member("alice", ["football"])
        sleeper = bed.add_member("sleeper", ["football"], auto_login=False)
        bed.run(30.0)
        assert alice.groups() == []  # sleeper not logged in yet
        sleeper.app.login("sleeper", "pw")
        bed.run(40.0)  # retry probe finds the now-active member
        assert alice.app.group_members("football") == ["alice", "sleeper"]

    def test_manual_join_and_leave(self, bed, trio):
        alice, _, _ = trio
        alice.app.join_group("movies")
        assert "movies" in alice.app.my_groups()
        assert "alice" in alice.app.group_members("movies")
        alice.app.leave_group("movies")
        assert "movies" not in alice.app.my_groups()

    def test_manual_membership_survives_refresh(self, bed, trio):
        alice, _, _ = trio
        alice.app.join_group("movies")
        alice.app.engine.refresh()
        assert "movies" in alice.app.my_groups()

    def test_logout_removes_self_after_refresh(self, bed, trio):
        alice, _, _ = trio
        alice.app.logout()
        assert alice.app.my_groups() == []

    def test_figure5_churn_walker_joins_then_leaves(self):
        bed = Testbed(seed=23, technologies=("bluetooth",))
        observer = bed.add_member("obs", ["football"],
                                  position=Point(100, 100))
        bed.add_member("walker", ["football"],
                       position=Point(82, 100),
                       model=LinearCrossing(Point(82, 100),
                                            Point(125, 100), 1.0))
        joined_at = bed.wait_for_groups(
            observer, lambda: "walker" in observer.app.group_members("football"),
            timeout=120.0)
        left_at = bed.wait_for_groups(
            observer,
            lambda: "walker" not in observer.app.group_members("football"),
            timeout=120.0)
        # The walker is in Bluetooth range (10 m) from x=90 (t=8) to
        # x=110 (t=28).  Discovery lag trails physical entry/exit.
        assert 8.0 <= joined_at <= 30.0
        assert left_at > joined_at
        assert 28.0 <= left_at <= 60.0
        bed.stop()


class TestSemanticsEndToEnd:
    def test_biking_cycling_split_without_semantics(self, bed):
        ann = bed.add_member("ann", ["biking"])
        bed.add_member("ben", ["cycling"])
        bed.run(30.0)
        assert ann.groups() == []  # exact matching: no shared group

    def test_teaching_merges_split_groups(self):
        bed = Testbed(seed=31, semantic=True)
        ann = bed.add_member("ann", ["biking"])
        bed.add_member("ben", ["cycling"])
        bed.run(30.0)
        assert ann.groups() == []
        ann.app.engine.teach_semantics("biking", "cycling")
        assert ann.app.group_members("biking") == ["ann", "ben"]
        assert ann.app.group_members("cycling") == ["ann", "ben"]
        bed.stop()

    def test_teaching_requires_semantic_matcher(self, bed, trio):
        alice, _, _ = trio
        with pytest.raises(TypeError):
            alice.app.engine.teach_semantics("biking", "cycling")
