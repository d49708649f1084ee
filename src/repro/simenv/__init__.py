"""Discrete-event simulation kernel.

This package provides the virtual-time substrate every other subsystem
runs on: a simulation clock, an event queue, generator-based processes,
signals, timers and deterministic per-stream randomness.

The design is a deliberately small, explicit simpy-like kernel:

* :class:`~repro.simenv.environment.Environment` owns the clock, the
  event queue and the root random seed.
* Plain callbacks are scheduled with ``env.call_at`` / ``env.call_in``.
  ``env.call_in_cohort`` schedules one that shares a single kernel
  event with the other cohort callbacks due at the same time, and
  fires exactly where ``call_in`` would have (PeerHood's discovery
  loops run this way).
* Behaviours that wait on virtual time (client operations, probes,
  relays) are generator *processes* started with ``env.spawn`` that
  ``yield`` :class:`~repro.simenv.process.Delay`,
  :class:`~repro.simenv.process.WaitSignal` or another process.
  Servers answer in the event that delivers each request instead.

All time values are floats in **seconds** of virtual time.
"""

from repro.simenv.clock import SimClock
from repro.simenv.environment import Environment, SimulationError
from repro.simenv.events import Event, EventQueue
from repro.simenv.process import Delay, Process, ProcessKilled, WaitProcess, WaitSignal
from repro.simenv.rng import RandomStreams
from repro.simenv.signal import Signal
from repro.simenv.timers import PeriodicTimer

__all__ = [
    "Delay",
    "Environment",
    "Event",
    "EventQueue",
    "PeriodicTimer",
    "Process",
    "ProcessKilled",
    "RandomStreams",
    "Signal",
    "SimClock",
    "SimulationError",
    "WaitProcess",
    "WaitSignal",
]
