"""Property-based tests (hypothesis) on core data structures and
invariants: framing, the event queue, geometry, interests, semantics,
groups and the dynamic-group-discovery matching rule."""

from __future__ import annotations

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community.groups import Group, GroupRegistry
from repro.community.interests import InterestSet, normalize_interest
from repro.community.semantics import SemanticMatcher
from repro.mobility.geometry import Point, Rect, distance
from repro.net.messages import deserialize, frame_size, serialize
from repro.simenv.events import EventQueue

# -- strategies ----------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**31, max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)
json_payloads = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5)),
    max_leaves=20)

interest_texts = st.text(
    alphabet=string.ascii_letters + "  ", min_size=1, max_size=30).filter(
        lambda s: s.strip())

member_ids = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


class TestFramingProperties:
    @given(payload=json_payloads)
    def test_serialize_round_trips(self, payload):
        assert deserialize(serialize(payload)) == payload

    @given(payload=json_payloads)
    def test_frame_size_is_serialized_length(self, payload):
        assert frame_size(payload) == len(serialize(payload))

    @given(payload=st.dictionaries(st.text(max_size=8), st.integers(),
                                   max_size=6))
    def test_encoding_is_order_insensitive(self, payload):
        reordered = dict(reversed(list(payload.items())))
        assert serialize(payload) == serialize(reordered)


class TestEventQueueProperties:
    @given(times=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                    allow_nan=False), max_size=50))
    def test_pop_order_is_sorted_and_stable(self, times):
        queue = EventQueue()
        for time in times:
            queue.push(time, lambda: None)
        popped = []
        while queue:
            popped.append(queue.pop())
        assert [e.time for e in popped] == sorted(times)
        # Stability: equal times preserve insertion order.
        for earlier, later in zip(popped, popped[1:], strict=False):
            if earlier.time == later.time:
                assert earlier.sequence < later.sequence


class TestGeometryProperties:
    @given(x1=st.floats(-1e3, 1e3), y1=st.floats(-1e3, 1e3),
           x2=st.floats(-1e3, 1e3), y2=st.floats(-1e3, 1e3))
    def test_distance_symmetric_and_nonnegative(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert distance(a, b) == distance(b, a) >= 0.0

    @given(x1=st.floats(-1e3, 1e3), y1=st.floats(-1e3, 1e3),
           x2=st.floats(-1e3, 1e3), y2=st.floats(-1e3, 1e3),
           step=st.floats(0.0, 100.0))
    def test_moved_towards_never_overshoots(self, x1, y1, x2, y2, step):
        start, target = Point(x1, y1), Point(x2, y2)
        moved = start.moved_towards(target, step)
        assert distance(moved, target) <= distance(start, target) + 1e-6

    @given(x=st.floats(-1e4, 1e4), y=st.floats(-1e4, 1e4))
    def test_clamp_lands_inside(self, x, y):
        rect = Rect(0.0, 0.0, 100.0, 50.0)
        assert rect.contains(rect.clamp(Point(x, y)))


class TestInterestProperties:
    @given(raw=interest_texts)
    def test_normalisation_idempotent(self, raw):
        once = normalize_interest(raw)
        assert normalize_interest(once) == once

    @given(items=st.lists(interest_texts, max_size=15))
    def test_interest_set_deduplicates(self, items):
        interests = InterestSet(items)
        as_list = interests.as_list()
        assert len(as_list) == len(set(as_list))
        assert set(as_list) == {normalize_interest(item) for item in items}

    @given(ours=st.lists(interest_texts, max_size=8),
           theirs=st.lists(interest_texts, max_size=8))
    def test_matches_symmetric_as_sets(self, ours, theirs):
        a, b = InterestSet(ours), InterestSet(theirs)
        assert set(a.matches(b)) == set(b.matches(a))


class TestSemanticsProperties:
    @given(pairs=st.lists(st.tuples(interest_texts, interest_texts),
                          max_size=12))
    def test_same_is_equivalence_relation(self, pairs):
        matcher = SemanticMatcher()
        for a, b in pairs:
            matcher.teach(a, b)
        terms = [normalize_interest(t) for pair in pairs for t in pair]
        for term in terms:
            assert matcher.same(term, term)  # reflexive
        for a, b in pairs:
            assert matcher.same(a, b)        # taught pairs merged
            assert matcher.same(b, a)        # symmetric

    @given(pairs=st.lists(st.tuples(interest_texts, interest_texts),
                          min_size=1, max_size=10))
    def test_canonical_is_class_minimum(self, pairs):
        matcher = SemanticMatcher()
        for a, b in pairs:
            matcher.teach(a, b)
        for a, b in pairs:
            canonical = matcher.canonical(a)
            synonyms = matcher.synonyms_of(a)
            assert canonical == min(synonyms)
            assert normalize_interest(b) in synonyms

    @given(pairs=st.lists(st.tuples(interest_texts, interest_texts),
                          max_size=10))
    def test_teaching_order_does_not_change_classes(self, pairs):
        forward = SemanticMatcher()
        backward = SemanticMatcher()
        for a, b in pairs:
            forward.teach(a, b)
        for a, b in reversed(pairs):
            backward.teach(b, a)
        for a, b in pairs:
            assert forward.canonical(a) == backward.canonical(a)
            assert forward.canonical(b) == backward.canonical(b)


class TestGroupProperties:
    @given(events=st.lists(
        st.tuples(st.sampled_from(["add", "remove", "merge", "everywhere"]),
                  member_ids, st.sampled_from(["g1", "g2", "g3"]),
                  st.sampled_from(["g1", "g2", "g3"])),
        max_size=40))
    def test_membership_matches_event_replay(self, events):
        registry = GroupRegistry()
        heard = []
        registry.on_membership_change(
            lambda interest, event: heard.append((interest, event)))
        expected: dict[str, set[str]] = {}
        created: dict[int, Group] = {}  # absorbed groups included
        for time, (action, member, group_name, into) in enumerate(events):
            when = float(time)
            if action == "merge":
                registry.merge(group_name, into, when)
                if group_name != into and group_name in expected:
                    expected.setdefault(into, set()).update(
                        expected.pop(group_name))
            elif action == "everywhere":
                registry.remove_member_everywhere(member, when)
                for members in expected.values():
                    members.discard(member)
            else:
                group = registry.ensure(group_name, when)
                if action == "add":
                    group.add(member, when)
                    expected.setdefault(group_name, set()).add(member)
                else:
                    group.remove(member, when)
                    expected.setdefault(group_name, set()).discard(member)
            for _, group in registry.items():
                created.setdefault(id(group), group)
        assert registry.names() == sorted(expected)
        for group_name, members in expected.items():
            assert registry.get(group_name).members == frozenset(members)
        # The listener hears every recorded event once, in call order.
        owner = {id(event): group for group in created.values()
                 for event in group.history}
        assert len(heard) == len(owner)
        assert all(owner[id(event)].interest == interest
                   for interest, event in heard)
        for group in created.values():
            assert [event for _, event in heard
                    if owner[id(event)] is group] == group.history

    @given(events=st.lists(
        st.tuples(st.sampled_from(["add", "remove"]), member_ids),
        max_size=30))
    def test_history_join_leave_alternates_per_member(self, events):
        registry = GroupRegistry()
        group = registry.ensure("g", 0.0)
        for time, (action, member) in enumerate(events):
            if action == "add":
                group.add(member, float(time))
            else:
                group.remove(member, float(time))
        per_member: dict[str, list[bool]] = {}
        for event in group.history:
            per_member.setdefault(event.member_id, []).append(event.joined)
        for joins in per_member.values():
            assert joins[0] is True
            for earlier, later in zip(joins, joins[1:], strict=False):
                assert earlier != later  # join/leave strictly alternate


class TestDiscoveryMatchingProperty:
    @settings(deadline=None)
    @given(own=st.lists(interest_texts, min_size=1, max_size=5),
           remote=st.lists(interest_texts, min_size=1, max_size=5))
    def test_group_formed_iff_interests_intersect(self, own, remote):
        """The Figure 6 rule: a shared group exists exactly when the
        normalised interest sets intersect."""
        from repro.community.discovery import DynamicGroupEngine
        from repro.community.profile import ProfileStore
        from repro.community.semantics import ExactMatcher

        class _Env:
            now = 0.0

        class _Daemon:
            env = _Env()

        class _Library:
            daemon = _Daemon()
            device_id = "local"

        store = ProfileStore()
        store.create_profile("me", "me", "pw", interests=own)
        store.login("me", "pw")
        engine = DynamicGroupEngine.__new__(DynamicGroupEngine)
        engine.store = store
        engine.matcher = ExactMatcher()
        engine.env = _Env()
        from repro.community.groups import GroupRegistry as _Registry
        engine.groups = _Registry()
        matched = engine._match_member("peer", [normalize_interest(r)
                                                for r in remote])
        own_set = {normalize_interest(i) for i in own}
        remote_set = {normalize_interest(r) for r in remote}
        assert (len(matched) > 0) == bool(own_set & remote_set)
        for interest in matched:
            group = engine.groups.get(interest)
            assert {"me", "peer"} <= set(group.members)
