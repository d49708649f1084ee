"""A closed world frees itself.

``Testbed.close()`` closes every link, has each layer let go of the
back-references and self-bound handlers it holds and drops the pending
events, so that the last reference to a bed frees the whole world by
reference counting.  A world left to the cyclic collector costs
collections that land in whichever later piece of work trips them
(DESIGN.md §10, "A closed world frees itself").
"""

from __future__ import annotations

import gc
import weakref
from collections.abc import Iterator
from contextlib import contextmanager

import pytest

from repro.eval import ablations, sweeps
from repro.eval.mscfigures import record_figure
from repro.eval.table8 import run_peerhood_column
from repro.eval.testbed import Testbed
from repro.eval.workloads import populate_neighborhood
from repro.mobility import Point, RandomWaypoint
from repro.net.faults import FaultConfig
from repro.simenv import SimulationError


@contextmanager
def _collector_off() -> Iterator[list[object]]:
    """Disable the collector; yields the list that, at exit, holds
    every object a collection found unreachable."""
    enabled = gc.isenabled()
    gc.disable()
    garbage: list[object] = []
    try:
        gc.collect()  # free what earlier code left, for real
        yield garbage
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage.extend(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _repro_types(garbage: list[object]) -> list[str]:
    """Names of the garbage's types that ``repro`` defines."""
    return sorted({f"{type(obj).__module__}.{type(obj).__qualname__}"
                   for obj in garbage
                   if type(obj).__module__.startswith("repro.")})


def _table8_room() -> Testbed:
    """The paper's room after its Table 8 workflow."""
    bed = Testbed(seed=4, technologies=("bluetooth",))
    observer = bed.add_member("alice", ["football", "music"])
    for index in range(3):
        bed.add_member(f"peer{index}", ["football", "music"])
    bed.wait_for_groups(observer, observer.joined("football"), timeout=120.0)
    members = bed.execute(observer.app.view_all_members())
    profile = bed.execute(
        observer.app.view_member_profile(members[0]["member_id"]))
    assert profile is not None
    return bed


def _chaotic_wlan_with_op_in_flight() -> Testbed:
    """Sixteen WLAN members under chaos faults, one client op waiting
    for its replies."""
    bed = Testbed(seed=23, technologies=("wlan",))
    members = populate_neighborhood(bed, 16, shared_interest="music")
    bed.enable_faults(FaultConfig.chaos(0.2))
    bed.run(30.0)
    op = bed.env.spawn(members[0].app.view_all_members(), name="op")
    stack = bed.devices["m00"].stack
    while not any(connection._recv_waiters
                  for connection in stack.open_connections()):
        assert bed.env.step()
    assert op.alive
    return bed


def _gprs_walkers() -> Testbed:
    """A GPRS bed whose members walk, one watched by a monitor."""
    bed = Testbed(seed=9, technologies=("gprs",))
    for index in range(4):
        walk = RandomWaypoint(bed.world.bounds,
                              bed.env.random.stream(f"walk{index}"))
        bed.add_member(f"w{index}", ["chess"], model=walk,
                       position=Point(50.0 + 20.0 * index, 100.0))
    bed.devices["w0"].library.monitor("w1")
    bed.run(60.0)
    assert bed.world.node("w0").position != Point(50.0, 100.0)
    return bed


class TestClosedWorldIsFreedByRefcount:
    @pytest.mark.parametrize("build", [_table8_room,
                                       _chaotic_wlan_with_op_in_flight,
                                       _gprs_walkers])
    def test_last_reference_frees_the_world(self, build):
        with _collector_off() as garbage:
            bed = build()
            env = weakref.ref(bed.env)
            bed.close()
            del bed
            assert env() is None
        assert _repro_types(garbage) == []

    def test_results_stay_readable(self):
        bed = _table8_room()
        bed.close()
        alice = bed.members["alice"]
        assert "football" in alice.groups()
        assert alice.device.daemon.knows("peer0")
        assert bed.medium.adapter("alice", "bluetooth").bytes_sent > 0

    def test_nothing_fires_after_close(self):
        bed = _table8_room()
        bed.close()
        events = bed.env.events_processed
        before = bed.env.now
        assert bed.run(60.0) == before + 60.0
        assert bed.env.events_processed == events
        assert not bed.env.step()

    def test_receivers_that_fail_when_woken_fail_close(self):
        bed = _table8_room()
        connection = bed.members["alice"].app.pool.connection_to("peer0")
        assert connection is not None

        def reader():
            payload = yield connection.recv()
            raise ValueError(f"woken with {payload!r}")

        bed.env.spawn(reader(), name="first")
        bed.env.spawn(reader(), name="second")
        with pytest.raises(SimulationError,
                           match="process 'first' failed .*woken with None"):
            bed.close()
        assert connection.closed
        bed.env.close()  # the first is reported, the rest are gone


@pytest.mark.parametrize("helper", [
    lambda: run_peerhood_column(trials=2),
    lambda: sweeps.density_point(2),
    lambda: sweeps.fragmentation_point(1, members=2),
    ablations.run_semantics_ablation,
    ablations.run_technology_ablation,
    lambda: ablations.run_scan_interval_sweep(intervals=(2.0,)),
    lambda: record_figure(11),
], ids=["run_peerhood_column", "density_point", "fragmentation_point",
        "run_semantics_ablation", "run_technology_ablation",
        "run_scan_interval_sweep", "record_figure"])
def test_no_eval_helper_leaks_a_world(helper):
    with _collector_off() as garbage:
        helper()
    assert _repro_types(garbage) == []
