"""Retry policies: timeouts, capped exponential backoff, typed degradation.

The paper's evaluation assumes clean Bluetooth links, but its own churn
discussion (Fig. 5) shows devices leaving mid-operation.  This module
gives every protocol layer a shared vocabulary for surviving that:

* :class:`RetryPolicy` — how often to retry, how long to wait between
  attempts (capped exponential backoff with *deterministic* jitter
  drawn from a named ``simenv`` random stream), how long one attempt
  may run, and a total virtual-time budget across attempts.
* :class:`RetryCounters` — mutable per-component tally of attempts,
  retries, timeouts and give-ups, aggregated by ``repro.eval.metrics``.
* :class:`Degraded` — the typed result an operation returns when its
  retry budget is exhausted.  Callers get *data about the failure*
  instead of an exception tearing down the workflow.
* :func:`recv_with_timeout` — a race helper turning an unbounded
  receive into a bounded one inside the generator-process kernel.

Nothing here sleeps wall-clock time; every delay is virtual and every
jitter draw is reproducible from the environment's root seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.simenv import Signal, WaitSignal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.connection import Connection
    from repro.simenv import Environment


class AttemptTimeoutError(ConnectionError):
    """One attempt of a retried operation exceeded its timeout."""


class CorruptReplyError(ConnectionError):
    """The peer answered, but the payload failed protocol validation."""


@dataclass(frozen=True)
class RetryPolicy:
    """How a protocol operation retries after transient failures.

    Attributes:
        max_attempts: Total tries including the first (1 = no retries).
        base_delay_s: Backoff before the first retry.
        multiplier: Exponential growth factor per further retry.
        max_delay_s: Cap on a single backoff delay.
        jitter: Fraction of each delay randomised away (0 disables
            jitter; 0.5 means the delay lands in [0.5d, d]).  Jitter is
            drawn from a seeded stream, so runs stay reproducible.
        attempt_timeout_s: Virtual seconds one attempt may spend waiting
            for a reply before it is abandoned (``None`` = unbounded).
        budget_s: Total virtual time the whole retry loop may consume;
            once exceeded no further retries start (``None`` = only
            ``max_attempts`` limits the loop).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.5
    multiplier: float = 2.0
    max_delay_s: float = 8.0
    jitter: float = 0.5
    attempt_timeout_s: float | None = 30.0
    budget_s: float | None = 120.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter!r}")

    def backoff_delay(self, retry_index: int, rng) -> float:
        """Delay before retry number ``retry_index`` (1-based).

        Deterministic given the rng state: capped exponential, then
        jittered downwards so synchronized clients de-correlate without
        ever waiting longer than the cap.
        """
        if retry_index < 1:
            raise ValueError(f"retry_index must be >= 1, got {retry_index!r}")
        raw = min(self.max_delay_s,
                  self.base_delay_s * self.multiplier ** (retry_index - 1))
        if self.jitter <= 0.0 or rng is None:
            return raw
        return raw * (1.0 - self.jitter * rng.random())

    def within_budget(self, started_at: float, now: float) -> bool:
        """Whether another retry may start given the elapsed budget."""
        if self.budget_s is None:
            return True
        return (now - started_at) < self.budget_s


#: Policy for interactive PS_* exchanges: quick, bounded.
DEFAULT_CLIENT_POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.5,
                                    max_delay_s=4.0, attempt_timeout_s=20.0,
                                    budget_s=90.0)

#: Policy for bulk transfers: more patient, resumes from offset.
DEFAULT_TRANSFER_POLICY = RetryPolicy(max_attempts=5, base_delay_s=0.5,
                                      max_delay_s=8.0, attempt_timeout_s=30.0,
                                      budget_s=240.0)


@dataclass(frozen=True)
class Degraded:
    """Typed degraded result: the operation gave up, gracefully.

    Returned (never raised) by retry-aware operations once their retry
    budget is exhausted, so workflows keep a value they can inspect:

    Attributes:
        operation: Name of the operation that degraded.
        reason: Human-readable cause of the final failure.
        attempts: Attempts consumed before giving up.
        failed_peers: Devices whose exchanges never completed.
        partial: Whatever partial result the operation gathered.
    """

    operation: str
    reason: str
    attempts: int = 0
    failed_peers: tuple[str, ...] = ()
    partial: Any = None

    def __bool__(self) -> bool:
        # A degraded result is falsy so ``if result:`` style guards
        # treat it like the empty/absent value it stands in for.
        return False


def is_degraded(value: Any) -> bool:
    """Whether ``value`` is a typed degraded result."""
    return isinstance(value, Degraded)


@dataclass
class RetryCounters:
    """Mutable tally of retry activity for one component.

    ``repro.eval.metrics`` aggregates these across clients, servers,
    downloaders and daemons into the chaos-run report.
    """

    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    corrupt_replies: int = 0
    giveups: int = 0
    degraded_results: int = 0
    backoffs: int = 0
    backoff_s: float = 0.0
    retries_by_operation: dict[str, int] = field(default_factory=dict)

    def record_attempt(self) -> None:
        """One attempt (first try or retry) started."""
        self.attempts += 1

    def record_retry(self, operation: str) -> None:
        """One retry of ``operation`` is about to run."""
        self.retries += 1
        self.retries_by_operation[operation] = (
            self.retries_by_operation.get(operation, 0) + 1)

    def record_backoff(self, delay_s: float) -> None:
        """One backoff sleep of ``delay_s`` virtual seconds."""
        self.backoffs += 1
        self.backoff_s += delay_s

    def record_giveup(self) -> None:
        """One peer exchange abandoned after exhausting retries."""
        self.giveups += 1

    def record_degraded(self) -> None:
        """One operation returned a :class:`Degraded` result."""
        self.degraded_results += 1

    def merge(self, other: RetryCounters) -> RetryCounters:
        """Fold ``other`` into this tally (returns self)."""
        self.attempts += other.attempts
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.corrupt_replies += other.corrupt_replies
        self.giveups += other.giveups
        self.degraded_results += other.degraded_results
        self.backoffs += other.backoffs
        self.backoff_s += other.backoff_s
        for operation, count in other.retries_by_operation.items():
            self.retries_by_operation[operation] = (
                self.retries_by_operation.get(operation, 0) + count)
        return self

    def as_dict(self) -> dict:
        """Plain-dict snapshot for reports."""
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "corrupt_replies": self.corrupt_replies,
            "giveups": self.giveups,
            "degraded_results": self.degraded_results,
            "backoffs": self.backoffs,
            "backoff_s": round(self.backoff_s, 6),
            "retries_by_operation": dict(self.retries_by_operation),
        }


# -- bounded waits inside the process kernel ---------------------------------

#: What a bounded wait's race fires with when its timer wins.
_TIMED_OUT = object()


def _expired() -> None:
    """The callback a decided race leaves on its timer: fires, holds nothing."""


def _race(env: Environment, signal: Signal, timeout_s: float) -> Signal:
    """A signal fired by ``signal``'s value or, after ``timeout_s``, by the timer.

    The first to come fires the race (the timer with ``_TIMED_OUT``);
    the other is ignored.  When the value wins, the timer stays
    scheduled (it is still an event and still counted) but its callback
    becomes the shared :func:`_expired`, so a decided wait keeps no
    payload, connection or race alive for the rest of its timeout.
    """
    race = Signal()
    timer = env.call_in(timeout_s, race.fire, _TIMED_OUT)

    def on_value(value: Any) -> None:
        if not race.fired:  # undecided, so the timer has not fired
            timer.callback = _expired
            race.fire(value)

    signal.wait(on_value)
    return race


def recv_with_timeout(env: Environment, connection: Connection,
                      timeout_s: float | None) -> Generator:
    """Process generator: receive one payload or raise on timeout.

    Races the connection's receive signal against a virtual-time
    timeout.  On timeout the caller should drop the connection — a
    reply that arrives later would otherwise be mistaken for the answer
    to a retried request.

    Raises:
        AttemptTimeoutError: No payload within ``timeout_s``.
    """
    if timeout_s is None:
        payload = yield connection.recv()
        return payload
    wait = connection.recv()  # raises on a closed link: no timer then
    payload = yield WaitSignal(_race(env, wait.signal, timeout_s))
    if payload is _TIMED_OUT:
        raise AttemptTimeoutError(
            f"no reply from {connection.remote_id!r} within {timeout_s}s")
    return payload

