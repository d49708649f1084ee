"""Server-side edge cases and protocol robustness (incl. fuzzing)."""

from __future__ import annotations

import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.community import protocol
from repro.community.profile import ProfileStore
from repro.community.server import CommunityServer, CommunityService
from repro.eval.testbed import Testbed
from repro.mobility import Point
from repro.peerhood.daemon import PHD_PORT
from repro.simenv import SimulationError


@pytest.fixture
def duo():
    bed = Testbed(seed=301, technologies=("bluetooth",))
    alice = bed.add_member("alice", ["x"])
    bob = bed.add_member("bob", ["x"])
    bed.run(30.0)
    yield bed, alice, bob
    bed.stop()


def _raw_exchange(bed, alice, payload):
    """Send an arbitrary payload to bob's server, return the reply."""

    def run():
        connection = yield from alice.app.pool.ensure("bob")
        connection.send(payload)
        reply = yield connection.recv()
        return reply

    return bed.execute(run())


class TestServerRobustness:
    def test_garbage_request_yields_bad_request(self, duo):
        bed, alice, _ = duo
        reply = _raw_exchange(bed, alice, {"op": "PS_NOT_REAL"})
        assert protocol.response_status(reply) == protocol.BAD_REQUEST

    def test_missing_fields_yield_bad_request(self, duo):
        bed, alice, _ = duo
        reply = _raw_exchange(bed, alice, {"op": protocol.PS_GETPROFILE})
        assert protocol.response_status(reply) == protocol.BAD_REQUEST

    def test_non_dict_payload_closes_nothing(self, duo):
        bed, alice, bob = duo
        reply = _raw_exchange(bed, alice, [1, 2, 3])
        assert protocol.response_status(reply) == protocol.BAD_REQUEST
        # The same connection still serves valid requests afterwards.
        reply = _raw_exchange(bed, alice, protocol.make_request(
            protocol.PS_GETONLINEMEMBERLIST))
        assert protocol.response_status(reply) == protocol.STATUS_OK

    def test_many_sequential_requests_one_connection(self, duo):
        bed, alice, bob = duo

        def run():
            connection = yield from alice.app.pool.ensure("bob")
            statuses = []
            for _ in range(10):
                connection.send(protocol.make_request(
                    protocol.PS_GETONLINEMEMBERLIST))
                reply = yield connection.recv()
                statuses.append(protocol.response_status(reply))
            return statuses

        assert bed.execute(run()) == [protocol.STATUS_OK] * 10
        assert bob.app.server.requests_served >= 10

    def test_every_member_op_refused_after_logout(self, duo):
        bed, alice, bob = duo
        bob.app.logout()
        for op, params in (
                (protocol.PS_GETONLINEMEMBERLIST, {}),
                (protocol.PS_GETINTERESTLIST, {}),
                (protocol.PS_GETINTERESTEDMEMBERLIST, {"interest": "x"}),
                (protocol.PS_GETPROFILE, {"member_id": "bob",
                                          "requester": "alice"}),
                (protocol.PS_CHECKMEMBERID, {"member_id": "bob"}),
                (protocol.PS_GETTRUSTEDFRIEND, {"member_id": "bob"}),
        ):
            reply = _raw_exchange(bed, alice,
                                  protocol.make_request(op, **params))
            assert protocol.response_status(reply) == \
                protocol.NO_MEMBERS_YET, op

    def test_trust_policy_acceptance_path(self):
        bed = Testbed(seed=303, technologies=("bluetooth",))
        alice = bed.add_member("alice", ["x"])
        bob_device = bed.add_device("bob", position=Point(103, 100))
        from repro.community.app import CommunityApp

        bob_app = CommunityApp(bob_device.library,
                               trust_policy=lambda requester:
                               requester == "alice")
        bob_app.create_profile("bob", "bob", "pw", interests=["x"])
        bob_app.login("bob", "pw")
        bob_app.start()
        bed.run(30.0)
        assert bed.execute(alice.app.client.request_trust("bob"))
        assert bob_app.profile.trusts("alice")
        bed.stop()

    def test_server_stop_refuses_new_connections(self, duo):
        bed, alice, bob = duo
        bob.app.server.stop()
        alice.app.pool.drop("bob")

        def run():
            connection = yield from alice.app.pool.ensure("bob")
            return connection

        with pytest.raises(ConnectionError):
            bed.execute(run())


class TestAnswerFailure:
    """A server half whose handler raises stops answering, and the run
    reports it under the name of the serving process it replaced."""

    @staticmethod
    def _pair() -> tuple[Testbed, object, object]:
        bed = Testbed(seed=3, technologies=("wlan",))
        alice = bed.add_member("alice", ["music"], position=Point(100.0, 100.0))
        bob = bed.add_member("bob", ["music"], position=Point(103.0, 100.0))
        bed.run(30.0)
        return bed, alice, bob

    def test_community_handler_failure_names_the_link(self, monkeypatch):
        bed, alice, bob = self._pair()
        server = bob.app.server
        served = server.requests_served

        def broken(op, params):
            raise RuntimeError("dispatch broke")

        monkeypatch.setattr(server, "_dispatch", broken)
        with pytest.raises(SimulationError, match=(
                r"^process 'phc-server:bob<-alice' failed at t=30\.005093: "
                r"RuntimeError\('dispatch broke'\)$")):
            bed.execute(alice.app.view_member_profile("bob"))
        monkeypatch.undo()
        profile = bed.execute(alice.app.view_member_profile("bob"))
        assert profile["member_id"] == "bob"
        # The failed link stopped answering, so the client's attempt
        # timed out and it dialed again.
        assert bed.env.now == pytest.approx(50.525224, abs=1e-6)
        assert server.requests_served == served + 1
        bed.stop()

    def test_control_handler_failure_names_the_daemon(self, monkeypatch):
        bed, alice, bob = self._pair()
        daemon = bob.device.daemon
        plugin = alice.device.daemon.plugins["wlan"]

        class Broken(dict):
            def values(self):
                raise RuntimeError("registry broke")

        failed = bed.execute(plugin.connect("bob", PHD_PORT))
        monkeypatch.setattr(daemon, "local_services",
                            Broken(daemon.local_services))
        failed.send({"op": "get_services"})
        with pytest.raises(SimulationError, match=(
                r"^process 'phd:bob:ctl' failed at t=30\.255036: "
                r"RuntimeError\('registry broke'\)$")):
            bed.run(bed.env.now + 1.0)
        monkeypatch.undo()
        # The failed link stays open and answers nothing more.
        failed.send({"op": "get_services"})
        bed.run(bed.env.now + 1.0)
        assert not failed.closed and failed.pending() == 0

        def ask():
            connection = yield from plugin.connect("bob", PHD_PORT)
            connection.send({"op": "get_services"})
            reply = yield connection.recv()
            connection.close()
            return reply

        reply = bed.execute(ask())
        assert [entry["name"] for entry in reply["services"]] == [
            "PeerHoodCommunity"]
        bed.stop()


# -- dispatch fuzzing ----------------------------------------------------------

_keys = st.sampled_from(["op", "member_id", "requester", "interest",
                         "comment", "receiver", "sender", "subject",
                         "body", "name", "offset", "length", "junk"])
_values = st.one_of(
    st.text(alphabet=string.printable, max_size=20),
    st.integers(min_value=-10**6, max_value=10**6),
    st.none(),
    st.booleans(),
    st.lists(st.integers(), max_size=3),
    st.sampled_from(sorted(protocol.OPERATIONS)))
_fuzzed_requests = st.dictionaries(_keys, _values, max_size=6)


class TestDispatchFuzz:
    @settings(deadline=None, max_examples=150)
    @given(payload=_fuzzed_requests)
    @example(payload={"op": protocol.PS_GETINTERESTEDMEMBERLIST,
                      "interest": 0})
    @example(payload={"op": protocol.PS_GETINTERESTEDMEMBERLIST,
                      "interest": None})
    @example(payload={"op": protocol.PS_GETINTERESTEDMEMBERLIST,
                      "interest": True})
    def test_dispatch_always_returns_a_known_status(self, payload):
        """No request payload may crash the server or produce an
        unknown status — errors become BAD_REQUEST, not exceptions."""
        store = ProfileStore()
        store.create_profile("bob", "bob", "pw", interests=["x"])
        store.login("bob", "pw")
        server = CommunityServer.__new__(CommunityServer)
        server.store = store
        server.recorder = None
        server.trust_policy = None
        server.requests_served = 0

        class _Env:
            now = 1.0

        server.env = _Env()
        from repro.community.filetransfer import FileTransferService

        server.file_service = FileTransferService(store)
        try:
            op, params = protocol.parse_request(payload)
        except protocol.ProtocolError:
            response = protocol.make_response(protocol.BAD_REQUEST)
        else:
            try:
                response = server._dispatch(op, params)
            except (TypeError, ValueError, KeyError):
                # Parameter *values* of the wrong shape are the
                # transport's BAD_REQUEST too in the full server loop.
                response = protocol.make_response(protocol.BAD_REQUEST)
        assert protocol.response_status(response) in protocol.ALL_STATUSES

    @pytest.mark.parametrize("interest", [0, None, True])
    def test_non_string_interest_is_a_bad_request(self, interest):
        store = ProfileStore()
        store.create_profile("bob", "bob", "pw", interests=["x"])
        store.login("bob", "pw")
        service = CommunityService(store)
        reply = service.handle_request(
            {"op": protocol.PS_GETINTERESTEDMEMBERLIST, "interest": interest})
        assert protocol.response_status(reply) == protocol.BAD_REQUEST
        assert service.bad_requests == 1
        assert service.requests_served == 1
