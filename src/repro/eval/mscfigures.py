"""Regenerating the paper's MSC figures (11-17) from live runs.

Each figure function builds the paper's neighbourhood (the observing
client plus two serving peers), lets discovery settle, clears the
recorder, performs exactly the figure's operation and returns the
recorded chart.  The arrows therefore come from the actual protocol
exchange, not from a drawing.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from repro.eval.testbed import Testbed
from repro.msc.render import render_msc
from repro.msc.trace import MscRecorder

FIGURE_TITLES = {
    11: "Figure 11: MSC Get Member List",
    12: "Figure 12: MSC Get Interests List",
    13: "Figure 13: MSC View Member Profile",
    14: "Figure 14: MSC Put Profile Comment",
    15: "Figure 15: MSC View Members Trusted Friends",
    16: "Figure 16: MSC View Members Shared Content",
    17: "Figure 17: MSC Send Message",
}


def _build_bed(seed: int) -> Testbed:
    bed = Testbed(seed=seed, technologies=("bluetooth",))
    bed.add_member("alice", ["football", "music"])
    bob = bed.add_member("bob", ["football", "movies"])
    bed.add_member("carol", ["music", "movies"])
    # Figure 16 needs trust and content on the serving side.
    bob.app.accept_trusted("alice")
    bob.app.share_file("match_highlights.mp4", 2_500_000)
    bob.app.share_file("lineup.txt", 2_048)
    bed.run(40.0)  # discovery + dynamic groups settle
    return bed


def _figure_operation(bed: Testbed, figure: int) -> Generator:
    alice = bed.members["alice"].app
    operations: dict[int, Callable[[], Generator]] = {
        11: alice.view_all_members,
        12: alice.view_interest_list,
        13: lambda: alice.view_member_profile("bob"),
        14: lambda: alice.comment_profile("bob", "Great match yesterday!"),
        15: lambda: alice.view_trusted_friends("bob"),
        16: lambda: alice.view_shared_content("bob"),
        17: lambda: alice.send_message("bob", "hello",
                                       "See you at the stadium."),
    }
    return operations[figure]()


def record_figure(figure: int, seed: int = 0) -> tuple[MscRecorder, object]:
    """Run one figure's operation; returns (recorder view, op result)."""
    if figure not in FIGURE_TITLES:
        raise ValueError(f"no MSC for figure {figure}; choose 11-17")
    bed = _build_bed(seed)
    bed.recorder.clear()
    result = bed.execute(_figure_operation(bed, figure))
    recorder = bed.recorder.subchart(
        ["client:alice", "server:bob", "server:carol"])
    bed.close()
    return recorder, result


def render_figure(figure: int, seed: int = 0) -> str:
    """The ASCII MSC for one paper figure."""
    recorder, _ = record_figure(figure, seed)
    return render_msc(recorder, title=FIGURE_TITLES[figure])
