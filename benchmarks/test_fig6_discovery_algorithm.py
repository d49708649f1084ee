"""Figure 6: the dynamic group discovery algorithm.

Two views of the algorithm:

* a pure-computation scaling sweep of the matching step (every own
  interest against every neighbour's interests) over N neighbours and
  M interests — the loop structure drawn in the figure;
* the end-to-end formation time on the live stack, the quantity behind
  Table 8's 11-second "group search" cell.
"""

from __future__ import annotations

from random import Random

from repro.community.discovery import DynamicGroupEngine
from repro.community.groups import GroupRegistry
from repro.community.profile import ProfileStore
from repro.community.semantics import ExactMatcher
from repro.eval.testbed import Testbed
from repro.eval.workloads import INTEREST_POOL


class _FakeEnv:
    now = 0.0


def _bare_engine(own_interests):
    store = ProfileStore()
    store.create_profile("me", "me", "pw", interests=own_interests)
    store.login("me", "pw")
    engine = DynamicGroupEngine.__new__(DynamicGroupEngine)
    engine.store = store
    engine.matcher = ExactMatcher()
    engine.env = _FakeEnv()
    engine.groups = GroupRegistry()
    return engine


def test_fig6_matching_scales_with_neighbours_and_interests(bench):
    rng = Random(6)
    own = list(INTEREST_POOL[:6])
    neighbours = [(f"peer{i:03d}", rng.sample(INTEREST_POOL,
                                              rng.randint(1, 6)))
                  for i in range(200)]

    def match_all():
        engine = _bare_engine(own)
        for member_id, interests in neighbours:
            engine._match_member(member_id, interests)
        return engine.groups

    groups = bench(match_all)
    # Every own interest that at least one neighbour shares has a group
    # containing us and that neighbour.
    for interest in own:
        sharers = [m for m, ints in neighbours if interest in ints]
        group = groups.get(interest)
        if sharers:
            assert group is not None
            assert set(sharers) <= set(group.members)
            assert "me" in group.members
        else:
            assert group is None or len(group) == 0


def test_fig6_refresh_is_idempotent(bench):
    rng = Random(7)
    engine = _bare_engine(list(INTEREST_POOL[:4]))
    engine.directory = {}
    engine.library = None
    for index in range(50):
        interests = rng.sample(INTEREST_POOL, rng.randint(1, 5))
        engine._match_member(f"peer{index}", interests)
        from repro.community.discovery import _PeerEntry
        engine.directory[f"dev{index}"] = _PeerEntry(f"peer{index}",
                                                     interests)
    before = {name: set(engine.groups.get(name).members)
              for name in engine.groups.names()}

    def refresh_twice():
        engine.refresh()
        engine.refresh()
        return {name: set(engine.groups.get(name).members)
                for name in engine.groups.names()}

    after = bench(refresh_twice)
    assert {k: v for k, v in after.items() if v} == \
        {k: v for k, v in before.items() if v}


def test_fig6_end_to_end_formation_time(bench):
    """Live-stack group formation: inquiry + service discovery +
    interest probe.  This is Table 8's 11 s, without the human."""

    def formation():
        bed = Testbed(seed=11, technologies=("bluetooth",))
        observer = bed.add_member("alice", ["football"])
        bed.add_member("bob", ["football"])
        elapsed = bed.wait_for_groups(observer, observer.joined("football"),
                                      timeout=600.0)
        bed.stop()
        return elapsed

    elapsed = bench(formation)
    print(f"Figure 6 (live): dynamic group formed after {elapsed:.1f} "
          f"virtual seconds (paper's group-search cell: 11 s)")
    assert 5.0 < elapsed < 20.0
