"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.eval.testbed import Testbed
from repro.mobility.geometry import Point
from repro.mobility.world import World
from repro.net.stack import NetworkStack, StackRegistry
from repro.radio.medium import Medium
from repro.radio.standards import BLUETOOTH, WLAN
from repro.simenv import Environment


@pytest.fixture
def env() -> Environment:
    """A fresh deterministic environment."""
    return Environment(seed=42)


@pytest.fixture
def world(env: Environment) -> World:
    """An empty 200x200 m world ticking at 0.5 s."""
    return World(env)


@pytest.fixture
def medium(world: World) -> Medium:
    """A radio medium over the world."""
    return Medium(world)


@pytest.fixture
def registry():
    """A fresh per-simulation stack registry, emptied at teardown.

    The explicit ``close_all`` guarantees listener and connection
    state cannot leak between tests, however a test ends — which the
    backend-parametrized conformance matrix relies on.
    """
    stacks = StackRegistry()
    yield stacks
    stacks.close_all()


@pytest.fixture
def linked_pair(env, world, medium, registry):
    """Two Bluetooth+WLAN devices 5 m apart with network stacks."""
    world.add_node("a", Point(0.0, 0.0))
    world.add_node("b", Point(5.0, 0.0))
    for device_id in ("a", "b"):
        medium.attach(device_id, BLUETOOTH)
        medium.attach(device_id, WLAN)
    stack_a = NetworkStack(env, medium, "a", registry)
    stack_b = NetworkStack(env, medium, "b", registry)
    return stack_a, stack_b


@pytest.fixture
def bed() -> Testbed:
    """A small Bluetooth+WLAN testbed, closed at teardown."""
    testbed = Testbed(seed=7)
    yield testbed
    testbed.close()


@pytest.fixture
def trio(bed: Testbed):
    """Three members with overlapping interests, discovery settled."""
    alice = bed.add_member("alice", ["football", "music"])
    bob = bed.add_member("bob", ["football", "movies"])
    carol = bed.add_member("carol", ["music", "movies"])
    bed.run(30.0)
    return alice, bob, carol
