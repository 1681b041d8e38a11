"""Deterministic discrete-event simulation engine.

The paper's evaluation ran on real EC2 instances and a residential
uplink; this engine is the substitute substrate (DESIGN.md §2): it gives
the reproduction a controllable notion of time, latency, bandwidth, and
failure, with fully deterministic execution (seeded RNG, stable event
ordering) so every benchmark run is replayable.

Two programming styles are supported:

- **Callbacks**: ``sim.schedule(delay, fn, *args)`` — used by routers and
  servers reacting to PDUs.
- **Processes**: generator coroutines that ``yield`` either a float
  (sleep that many simulated seconds) or a :class:`Future` (resume when
  it resolves) — used by clients, replication daemons, and benchmarks.

Time is a float in seconds.  Events scheduled at equal times fire in
schedule order (a monotonically increasing tiebreaker), which is what
makes runs deterministic.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator

from repro.runtime.context import Future, Process, RuntimeContext

__all__ = ["Simulator", "Future", "Process"]


def _cancelled() -> None:
    """What a cancelled event runs when its time comes."""


class _Event(list):
    """A queue entry ``[time, seq, fn, args]`` and its own handle: a
    cancelled one still pops at its time (clock and counts hold)."""

    __slots__ = ()

    def cancel(self) -> None:
        self[2:] = (_cancelled, ())


class Simulator(RuntimeContext):
    """The event loop: a priority queue over (time, seq) keys.

    ``Future``/``Process`` and the derived combinators (``timeout``,
    ``gather``) live on :class:`~repro.runtime.context.RuntimeContext`;
    this class supplies the virtual clock and the deterministic queue.
    """

    def __init__(self):
        self._now = 0.0
        self._queue: list[_Event] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current (simulated) time."""
        return self._now

    def schedule(self, delay: float, fn: Callable, *args: Any) -> _Event:
        """Run ``fn(*args)`` *delay* simulated seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        event = _Event((self._now + delay, self._seq, fn, args))
        heapq.heappush(self._queue, event)
        return event

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        if not self._queue:
            return False
        when, _, fn, args = heapq.heappop(self._queue)
        self._now = when
        fn(*args)
        return True

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> None:
        """Drain the event queue, optionally stopping the clock at
        *until* (events beyond it remain queued)."""
        executed = 0
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self._now = until
                return
            self.step()
            executed += 1
            if executed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events — livelock?"
                )
        if until is not None:
            self._now = max(self._now, until)

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Spawn a process, run the simulation until it completes, and
        return its result (the common benchmark entry point)."""
        process = self.spawn(generator, name)
        while not process.completion.done:
            if not self.step():
                raise RuntimeError(
                    f"deadlock: process {process.name!r} is waiting but "
                    "the event queue is empty"
                )
        return process.completion.result()
