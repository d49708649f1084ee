"""Table 8: the paper's headline experiment.

Five columns — Facebook and Hi5 on Nokia N810/N95, and PeerHood
Community on the laptop/desktop testbed — each measured on four tasks:
search an interest group, join it, view the member list, view one
member's profile.

The SNS columns run :class:`~repro.sns.workflows.SnsWorkflow` against a
seeded site database.  The PeerHood column runs the real simulated
stack: group-search time is the virtual time from application start
until dynamic group discovery has formed the group (inquiry + service
discovery + interest probe), join time is structurally zero, and the
two viewing tasks drive the actual ``PS_*`` operations plus the same
human model the SNS columns use (Table 8 timed a person at a terminal
on both sides).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from repro.eval.reporting import format_table, seconds
from repro.eval.testbed import Testbed
from repro.sns.census import census_row, seed_database_from_census
from repro.sns.database import SnsDatabase
from repro.sns.devices import NOKIA_N810, NOKIA_N95, AccessDevice
from repro.sns.human import HumanModel
from repro.sns.server import SnsServer
from repro.sns.sites import FACEBOOK_2008, HI5_2008, SiteProfile
from repro.sns.workflows import SnsWorkflow, TaskTimes

#: The paper's Table 8, for shape comparison in benches and
#: EXPERIMENTS.md.  Values in seconds, tasks in the paper's order.
PAPER_TABLE8: dict[str, TaskTimes] = {
    "Facebook / Nokia N810": TaskTimes(58.0, 17.0, 8.0, 11.0),
    "Facebook / Nokia N95": TaskTimes(75.0, 24.0, 31.0, 27.0),
    "HI5 / Nokia N810": TaskTimes(50.0, 25.0, 18.0, 32.0),
    "HI5 / Nokia N95": TaskTimes(69.0, 40.0, 32.0, 40.0),
    "PeerHood Community": TaskTimes(11.0, 0.0, 15.0, 19.0),
}


@dataclass(frozen=True)
class ConsoleUi:
    """The reference application's text interface (Figure 10) on the
    paper's laptop/desktop testbed: menu navigation and list reading
    costs for the human model."""

    nav_s: float = 3.0
    scan_s_per_item: float = 2.2
    menu_read_s: float = 5.2
    profile_read_s: float = 13.0


# -- SNS columns ----------------------------------------------------------


def build_sns(site: SiteProfile, seed: int, *, population: int = 400,
              group_members: int = 30) -> SnsServer:
    """A seeded site with the paper's test group populated."""
    rng = Random(seed)
    database = SnsDatabase()
    row = census_row("Facebook" if site is FACEBOOK_2008 else "Fotolog")
    seed_database_from_census(database, row, rng,
                              scale=max(1, row.registered_users // population))
    group = "England Football"
    members = [f"user{index:06d}" for index in range(group_members)]
    for user_id in members:
        database.join_group(group, user_id)
    # The tester's own account, used by the join task.
    for trial in range(64):
        database.register_user(f"tester{trial}", f"Tester {trial}")
    return SnsServer(site, database)


def run_sns_column(site: SiteProfile, device: AccessDevice, *,
                   seed: int = 0, trials: int = 5) -> TaskTimes:
    """Average Table 8 task times for one (site, device) cell."""
    totals = [0.0, 0.0, 0.0, 0.0]
    for trial in range(trials):
        server = build_sns(site, seed + trial)
        workflow = SnsWorkflow(server, device, Random(seed * 1000 + trial))
        times = workflow.run_table8_tasks("England Football",
                                          "England Football",
                                          user_id=f"tester{trial}")
        for index, value in enumerate((times.search_s, times.join_s,
                                       times.member_list_s, times.profile_s)):
            totals[index] += value
    return TaskTimes(*(total / trials for total in totals))


# -- PeerHood Community column ---------------------------------------------------


def run_peerhood_column(*, seed: int = 0, trials: int = 5,
                        neighbors: int = 3,
                        ui: ConsoleUi | None = None) -> TaskTimes:
    """Average Table 8 task times for the PeerHood Community column.

    Each trial builds a fresh Bluetooth neighbourhood (the paper's
    room: one observer plus ``neighbors`` peers sharing the Football
    interest), measures group-formation time, confirms zero-cost join,
    then times the two viewing tasks with the console human model.
    """
    ui = ui if ui is not None else ConsoleUi()
    totals = [0.0, 0.0, 0.0, 0.0]
    for trial in range(trials):
        bed = Testbed(seed=seed + trial, technologies=("bluetooth",))
        observer = bed.add_member("alice", ["football", "music"])
        for index in range(neighbors):
            extra = ["movies"] if index % 2 else ["music"]
            bed.add_member(f"peer{index}", ["football"] + extra)
        human = HumanModel(bed.env.random.stream("table8-human"))

        # Task 1: group search = app start -> group formed dynamically.
        # (The app start/menu moment is part of the paper's stopwatch.)
        start = bed.env.now
        formed = bed.wait_for_groups(observer, observer.joined("football"),
                                     timeout=120.0)
        search_s = (formed - start) + human.think(0.8)

        # Task 2: join.  Dynamic discovery already placed us in the
        # group ("Already in the Group") - verify, cost nothing.
        assert "football" in observer.app.my_groups()
        join_s = 0.0

        # Task 3: view member list (menu -> PS_GETONLINEMEMBERLIST -> scan).
        member_list_s = human.navigate(ui.nav_s) + human.think(ui.menu_read_s)
        op_start = bed.env.now
        members = bed.execute(observer.app.view_all_members())
        member_list_s += bed.env.now - op_start
        member_list_s += human.scan_list(len(members), ui.scan_s_per_item)

        # Task 4: view one member's profile (menu -> select -> read).
        target = members[0]["member_id"]
        profile_s = human.navigate(ui.nav_s) + human.navigate(ui.nav_s)
        op_start = bed.env.now
        profile = bed.execute(observer.app.view_member_profile(target))
        profile_s += bed.env.now - op_start
        profile_s += human.read_page(ui.profile_read_s)
        assert profile is not None and profile["member_id"] == target

        bed.stop()
        for index, value in enumerate((search_s, join_s,
                                       member_list_s, profile_s)):
            totals[index] += value
    return TaskTimes(*(total / trials for total in totals))


# -- the full table ----------------------------------------------------------


def run_table8(*, seed: int = 0, trials: int = 5) -> dict[str, TaskTimes]:
    """All five Table 8 columns, measured."""
    return {
        "Facebook / Nokia N810": run_sns_column(FACEBOOK_2008, NOKIA_N810,
                                                seed=seed, trials=trials),
        "Facebook / Nokia N95": run_sns_column(FACEBOOK_2008, NOKIA_N95,
                                               seed=seed, trials=trials),
        "HI5 / Nokia N810": run_sns_column(HI5_2008, NOKIA_N810,
                                           seed=seed, trials=trials),
        "HI5 / Nokia N95": run_sns_column(HI5_2008, NOKIA_N95,
                                          seed=seed, trials=trials),
        "PeerHood Community": run_peerhood_column(seed=seed, trials=trials),
    }


def format_table8(measured: dict[str, TaskTimes],
                  paper: dict[str, TaskTimes] | None = PAPER_TABLE8) -> str:
    """Render measured (and optionally paper) values side by side."""
    headers = ["Task"] + list(measured)
    task_names = ("Average Group search Time", "Average Group Join Time",
                  "Viewing Member List Average Time",
                  "Viewing one Member profile Average Time", "Total Time Taken")

    def row_values(times: TaskTimes) -> tuple[float, ...]:
        return (times.search_s, times.join_s, times.member_list_s,
                times.profile_s, times.total_s)

    rows = []
    for index, task in enumerate(task_names):
        row = [task]
        for column in measured:
            cell = seconds(row_values(measured[column])[index])
            if paper is not None and column in paper:
                cell += f"  (paper: {row_values(paper[column])[index]:.0f})"
            row.append(cell)
        rows.append(row)
    return format_table(headers, rows,
                        title="Table 8: time records, measured vs paper")
