"""Testbed: one-call assembly of a complete simulated neighbourhood.

A :class:`Testbed` wires the whole stack — environment, world, medium,
gateway, per-device network stacks, PeerHood daemons and PeerHood
Community applications — the way the paper's test environment did
(Appendix 1: two desktop PCs and two laptops in room 6604).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Generator

from repro.community.app import CommunityApp
from repro.mobility.geometry import Point, Rect
from repro.mobility.models import MobilityModel
from repro.mobility.world import World
from repro.msc.trace import MscRecorder
from repro.net.faults import FaultConfig, FaultInjector
from repro.net.retry import RetryPolicy
from repro.net.stack import NetworkStack, StackRegistry
from repro.peerhood.daemon import PeerHoodDaemon
from repro.peerhood.library import PeerHoodLibrary
from repro.peerhood.plugins import BTPlugin, GPRSPlugin, WLANPlugin
from repro.peerhood.seamless import SeamlessConnectivityManager
from repro.radio.gprs import GprsGateway
from repro.radio.medium import Medium
from repro.radio.standards import BLUETOOTH, GPRS, WLAN
from repro.simenv import Environment, Signal

_TECHNOLOGY_BY_NAME = {
    "bluetooth": BLUETOOTH,
    "wlan": WLAN,
    "gprs": GPRS,
}


@dataclass
class DeviceHandle:
    """A plain PeerHood device (no community app)."""

    device_id: str
    stack: NetworkStack
    daemon: PeerHoodDaemon
    library: PeerHoodLibrary

    def seamless(self, **kwargs) -> SeamlessConnectivityManager:
        """Attach a seamless-connectivity manager to this device."""
        return SeamlessConnectivityManager(self.daemon, **kwargs)


@dataclass
class MemberHandle:
    """A device running PeerHood Community with a logged-in member."""

    device: DeviceHandle
    app: CommunityApp

    @property
    def device_id(self) -> str:
        """The device id (also used as the node id in the world)."""
        return self.device.device_id

    @property
    def member_id(self) -> str:
        """The logged-in member's id."""
        profile = self.app.profile
        if profile is None:
            raise RuntimeError(f"nobody logged in on {self.device_id!r}")
        return profile.member_id

    def groups(self) -> list[str]:
        """Groups the member currently belongs to."""
        return self.app.my_groups()

    def joined(self, interest: str) -> Callable[[], bool]:
        """A :meth:`Testbed.wait_for_groups` condition: in ``interest``'s group."""
        return lambda: interest in self.groups()


class Testbed:
    """A ready-to-run simulated mobile neighbourhood.

    Args:
        seed: Root random seed (full determinism).
        bounds: Simulated area.
        technologies: Technology names every new device gets by default.
        scan_interval: PeerHood discovery-loop period in seconds.
        semantic: Give community apps a teachable semantic matcher.
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, seed: int = 0, *,
                 bounds: Rect | None = None,
                 technologies: tuple[str, ...] = ("bluetooth", "wlan"),
                 scan_interval: float = 10.0,
                 semantic: bool = False) -> None:
        self.env = Environment(seed=seed)
        self.world = World(self.env, bounds)
        self.medium = Medium(self.world)
        self.registry = StackRegistry()
        self.gateway = GprsGateway()
        self.recorder = MscRecorder()
        self.default_technologies = technologies
        self.scan_interval = scan_interval
        self.semantic = semantic
        self.devices: dict[str, DeviceHandle] = {}
        self.members: dict[str, MemberHandle] = {}
        self.faults: FaultInjector | None = None
        self._placement_index = 0
        if "gprs" in technologies:
            self.medium.register_gateway("gprs")

    # -- fault injection ------------------------------------------------------

    def enable_faults(self, config: FaultConfig | None = None, *,
                      stream: str = "faults") -> FaultInjector:
        """Install a seeded :class:`FaultInjector` on the shared medium.

        Idempotent per testbed: a second call reconfigures the existing
        injector (keeping its counters and RNG position) instead of
        replacing it, so a chaos run can ramp rates mid-flight.
        """
        if self.faults is None:
            self.faults = FaultInjector(self.env, self.medium, config,
                                        stream=stream)
            self.faults.install()
        else:
            if config is not None:
                self.faults.config = config
            self.faults.enabled = True
        return self.faults

    def disable_faults(self) -> None:
        """Suspend injection (counters survive for the final report)."""
        if self.faults is not None:
            self.faults.enabled = False

    # -- building ----------------------------------------------------------

    def _default_position(self) -> Point:
        """Deterministic close-cluster placement (all in BT range)."""
        center = Point(100.0, 100.0)
        index = self._placement_index
        self._placement_index += 1
        if index == 0:
            return center
        ring = 1 + (index - 1) // 6
        angle = (index - 1) % 6 * (math.pi / 3.0) + ring * 0.5
        radius = 3.0 * ring
        return Point(center.x + radius * math.cos(angle),
                     center.y + radius * math.sin(angle))

    def add_device(self, device_id: str, *, position: Point | None = None,
                   model: MobilityModel | None = None,
                   technologies: tuple[str, ...] | None = None,
                   start_daemon: bool = True) -> DeviceHandle:
        """Add a PeerHood-capable device to the world."""
        if device_id in self.devices:
            raise ValueError(f"device {device_id!r} already exists")
        technologies = technologies or self.default_technologies
        self.world.add_node(device_id,
                            position or self._default_position(), model)
        stack = NetworkStack(self.env, self.medium, device_id, self.registry)
        plugins = []
        for name in technologies:
            technology = _TECHNOLOGY_BY_NAME[name]
            self.medium.attach(device_id, technology)
            if name == "bluetooth":
                plugin = BTPlugin(self.env, self.medium, stack, device_id)
            elif name == "wlan":
                plugin = WLANPlugin(self.env, self.medium, stack, device_id)
            elif name == "gprs":
                self.medium.register_gateway("gprs")
                plugin = GPRSPlugin(self.env, self.medium, stack,
                                    device_id, self.gateway)
            # The registry entry may be a variant (e.g. a lossy or
            # alternate-standard parameterisation); the plugin must use
            # the same descriptor the adapter was attached with.
            plugin.technology = technology
            plugins.append(plugin)
        daemon = PeerHoodDaemon(self.env, self.medium, stack, device_id,
                                plugins, scan_interval=self.scan_interval)
        if start_daemon:
            daemon.start()
        handle = DeviceHandle(device_id, stack, daemon,
                              PeerHoodLibrary(daemon))
        self.devices[device_id] = handle
        return handle

    def add_member(self, name: str, interests: list[str], *,
                   position: Point | None = None,
                   model: MobilityModel | None = None,
                   technologies: tuple[str, ...] | None = None,
                   full_name: str = "", password: str = "pw",
                   auto_login: bool = True,
                   retry_policy: RetryPolicy | None = None) -> MemberHandle:
        """Add a device running PeerHood Community with one profile.

        The member id, username and device id all equal ``name`` —
        one person, one PTD, as in the paper's tests.
        """
        device = self.add_device(name, position=position, model=model,
                                 technologies=technologies)
        app = CommunityApp(device.library, self.recorder,
                           semantic=self.semantic,
                           retry_policy=retry_policy)
        app.create_profile(member_id=name, username=name, password=password,
                           full_name=full_name or name.capitalize(),
                           interests=interests)
        if auto_login:
            app.login(name, password)
        app.start()
        member = MemberHandle(device, app)
        self.members[name] = member
        return member

    # -- running ------------------------------------------------------------

    def run(self, duration: float) -> float:
        """Advance the simulation by ``duration`` virtual seconds."""
        return self.env.run(until=self.env.now + duration)

    def execute(self, generator: Generator, *, timeout: float = 600.0):
        """Run a process generator to completion and return its result.

        Drives the event loop (timers keep firing) until the spawned
        process finishes.  If it takes more than ``timeout`` virtual
        seconds, fires the first event past the deadline and raises
        ``TimeoutError``; raises ``RuntimeError`` if the queue runs dry
        first.
        """
        env = self.env
        process = env.spawn(generator, name="testbed.execute")
        # The harness observes the result itself (re-raising failures
        # from process.result), so the kernel must not also report the
        # failure as unobserved.
        env.acknowledge_failure(process)  # sync failure at spawn
        done = process.done
        done.wait(lambda _value: None)  # later failures
        if process.alive:
            self._run_until(done, env.now + timeout, timeout, "operation")
        return process.result

    def wait_for_groups(self, member: MemberHandle, condition: Callable[[], bool],
                        *, timeout: float) -> float:
        """Run until ``condition()``, which reads ``member``'s groups, holds.

        Tests it now and after each event that changed those groups, never
        inside one: an event can remove and re-add members.  Returns the
        time; ends on deadline or idle queue as :meth:`execute` does."""
        registry = member.app.engine.groups
        deadline = self.env.now + timeout
        while not condition():
            changed = Signal("testbed.groups")

            def listener(_interest, _event, changed=changed) -> None:
                if not changed.fired:
                    changed.fire()

            registry.on_membership_change(listener)
            try:
                self._run_until(changed, deadline, timeout, "group wait")
            finally:
                registry.off_membership_change(listener)
        return self.env.now

    def _run_until(self, stop: Signal, deadline: float, timeout: float,
                   what: str) -> None:
        """Run until ``stop`` fires; past ``deadline``, fire the next event
        and raise ``TimeoutError`` (``RuntimeError`` if there is none)."""
        self.env.run(until=deadline, stop=stop)
        if not stop.fired:
            if not self.env.step():
                raise RuntimeError(
                    f"simulation went idle with the {what} still pending")
            raise TimeoutError(
                f"{what} still running after {timeout} simulated seconds")

    def stop(self) -> None:
        """Stop world ticks and daemons (lets the event queue drain).

        The bed stays usable: :meth:`run` and :meth:`execute` still
        fire what is queued, and a daemon can start again.
        """
        self.world.stop()
        for handle in self.devices.values():
            handle.daemon.stop()

    def close(self) -> None:
        """Stop, and take the world apart, so that the last reference to
        the bed frees it by reference counting, not the cyclic
        collector (DESIGN.md §10, "A closed world frees itself").

        Closes every open link, which wakes the receivers waiting on
        one; has every layer let go of what it holds that refers back
        to it (back-references, handlers it bound to itself); and drops
        the pending events and cohorts last, with whatever the woken
        receivers queued.  Results stay readable, but the bed is not
        usable any more: nothing fires again.  Raises
        ``SimulationError`` for a failure not yet reported, as
        :meth:`run` would.
        """
        self.stop()
        self.registry.close_all()
        for member in self.members.values():
            member.app.close()
        for handle in self.devices.values():
            handle.daemon.close()
        self.medium.close()
        self.world.close()
        self.env.close()
