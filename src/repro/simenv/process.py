"""Generator-based simulation processes.

A process is a Python generator driven by the environment.  Each
``yield`` suspends the process until the yielded condition is met:

* ``yield Delay(seconds)`` — resume after virtual time passes.
* ``yield WaitSignal(signal)`` — resume when the signal fires; the
  signal's value becomes the result of the ``yield`` expression.
* ``yield WaitProcess(process)`` or ``yield process`` — resume when the
  child process finishes; its return value becomes the ``yield`` result.
  If the child failed, its exception is re-raised inside the waiter.

Processes return values with a plain ``return`` statement and propagate
exceptions to waiters, so simulation code reads like straight-line
code.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.simenv.signal import Signal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simenv.environment import Environment

# The three yieldable wrappers are plain __slots__ classes: one is
# built per yield on the kernel's hottest path, where the frozen
# dataclasses they used to be pay object.__setattr__ per field.


class Delay:
    """Suspend the yielding process for ``seconds`` of virtual time."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"delay must be non-negative, got {seconds!r}")
        self.seconds = seconds

    def __repr__(self) -> str:
        return f"Delay({self.seconds!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Delay) and other.seconds == self.seconds

    def __hash__(self) -> int:
        return hash((Delay, self.seconds))


class WaitSignal:
    """Suspend the yielding process until ``signal`` fires."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal) -> None:
        self.signal = signal

    def __repr__(self) -> str:
        return f"WaitSignal({self.signal!r})"


class WaitProcess:
    """Suspend the yielding process until ``process`` completes."""

    __slots__ = ("process",)

    def __init__(self, process: Process) -> None:
        self.process = process

    def __repr__(self) -> str:
        return f"WaitProcess({self.process!r})"


class ProcessKilled(Exception):
    """Raised inside a generator when its process is killed."""


class Process:
    """A running simulation process wrapping a generator."""

    __slots__ = ("_env", "_generator", "name", "_done", "_result",
                 "_exception", "_alive")

    def __init__(self, env: Environment, generator: Generator, name: str = "") -> None:
        self._env = env
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # The completion signal is built lazily: most processes (every
        # service query, probe and serve) finish with nobody waiting,
        # and tens of thousands of spawns per discovery round made the
        # eager Signal a measurable kernel cost.
        self._done: Signal | None = None
        self._result: Any = None
        self._exception: BaseException | None = None
        self._alive = True

    @property
    def done(self) -> Signal:
        """Signal fired with the process result when it finishes."""
        if self._done is None:
            self._done = Signal(f"{self.name}.done")
            if not self._alive:
                self._done.fire(self._result)
        return self._done

    @property
    def alive(self) -> bool:
        """Whether the process is still running."""
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the generator (valid once finished).

        Raises:
            RuntimeError: If the process has not finished.
            BaseException: The process' own exception if it failed.
        """
        if self._alive:
            raise RuntimeError(f"process {self.name!r} still running")
        if self._exception is not None:
            raise self._exception
        return self._result

    def kill(self) -> None:
        """Throw :class:`ProcessKilled` into the generator."""
        if not self._alive:
            return
        try:
            self._generator.throw(ProcessKilled())
        except (ProcessKilled, StopIteration):
            self._finish(None, None)
        except BaseException as exc:  # generator handled kill then failed
            self._finish(None, exc)
        else:
            # Generator swallowed the kill and yielded again; that is a
            # programming error in the generator.
            self._finish(None, RuntimeError(f"process {self.name!r} ignored kill"))

    # -- kernel interface ------------------------------------------------

    def _start(self) -> None:
        self._resume_with(None)

    def _step(self, advance: Any) -> None:
        """Advance the generator once and interpret what it yields."""
        if not self._alive or self._generator.gi_running:
            # gi_running: the resume arrived from *inside* the
            # generator's own execution — e.g. its finally clause (run
            # by close() during teardown) closed a connection whose
            # error path fires the signal this very process waits on.
            # Sending into a running generator is a ValueError; the
            # process is tearing down, so drop the resume.
            return
        try:
            yielded = advance()
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except ProcessKilled:
            self._finish(None, None)
            return
        except BaseException as exc:
            self._finish(None, exc)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if type(yielded) is Delay:
            # Most yields are Delays: push straight onto the queue
            # (the delay is validated non-negative by Delay.__init__)
            # instead of building a partial through ``call_in``.
            env = self._env
            env.queue.push(env.clock.now + yielded.seconds,
                           self._resume_none)
        elif isinstance(yielded, WaitSignal):
            yielded.signal.wait(self._resume_with)
        elif isinstance(yielded, (WaitProcess, Process)):
            child = yielded.process if isinstance(yielded, WaitProcess) else yielded
            child.done.wait(lambda _value: self._resume_after(child))
        else:
            self._step(
                lambda: self._generator.throw(
                    TypeError(f"process {self.name!r} yielded {yielded!r}")
                )
            )

    def _resume_none(self) -> None:
        self._resume_with(None)

    def _resume_with(self, value: Any) -> None:
        # The kernel's hottest path (every Delay/Signal resume lands
        # here): advance the generator directly instead of routing a
        # fresh closure through ``_step``.  The gi_running guard
        # mirrors ``_step``: never send into a generator mid-teardown.
        if not self._alive or self._generator.gi_running:
            return
        try:
            yielded = self._generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except ProcessKilled:
            self._finish(None, None)
            return
        except BaseException as exc:
            self._finish(None, exc)
            return
        self._wait_on(yielded)

    def _resume_after(self, child: Process) -> None:
        if child._exception is not None:
            exc = child._exception
            self._step(lambda: self._generator.throw(exc))
        else:
            self._step(lambda: self._generator.send(child._result))

    def _finish(self, result: Any, exception: BaseException | None) -> None:
        self._alive = False
        self._result = result
        self._exception = exception
        self._generator.close()
        if exception is not None and (self._done is None
                                      or not self._done._waiters):
            self._env.note_failure(self, exception)
        if self._done is not None:
            self._done.fire(result)

    def __repr__(self) -> str:
        state = "alive" if self._alive else "done"
        return f"Process({self.name!r}, {state})"
