"""Runtime context: one scheduling/clock interface for sim and sockets.

Everything below the dispatch plane — RPC timeouts, lease refresh,
anti-entropy daemons, retry backoff — needs *time* and *deferred
execution*, but must not care where they come from.  A
:class:`RuntimeContext` provides exactly that contract:

- ``now`` — the current time in (float) seconds;
- ``schedule(delay, fn, *args)`` — run a callback later;
- :class:`Future` / :class:`Process` — the one-shot value and
  generator-coroutine primitives every client/daemon is written
  against;
- :class:`Periodic` — the cadence every background daemon shares
  (start / stop / jittered sleep), leaving a daemon only its tick.

Two implementations exist:

- :class:`~repro.sim.engine.Simulator` — the deterministic
  discrete-event engine (virtual time, seeded ordering);
- :class:`AsyncioContext` — a thin adapter over an asyncio event loop
  (monotonic wall clock, real sockets).

Because ``Future``/``Process`` only ever touch ``ctx.now`` and
``ctx.schedule``, the same generator code (``yield 0.5``, ``yield from
client.read(...)``) runs unchanged on either substrate.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Generator, Iterable

from repro.errors import TimeoutError_

__all__ = ["RuntimeContext", "AsyncioContext", "Future", "Process", "Periodic"]


class Future:
    """A one-shot value a process can wait on."""

    __slots__ = ("ctx", "_value", "_error", "_done", "_waiters")

    def __init__(self, ctx: "RuntimeContext"):
        self.ctx = ctx
        self._value: Any = None
        self._error: BaseException | None = None
        self._done = False
        self._waiters: list[Callable[["Future"], None]] = []

    @property
    def done(self) -> bool:
        """Whether the future has resolved or failed."""
        return self._done

    def result(self) -> Any:
        """The resolved value; raises the stored error if failed."""
        if not self._done:
            raise RuntimeError("future is not resolved yet")
        if self._error is not None:
            raise self._error
        return self._value

    def _settle(self, value: Any, error: BaseException | None) -> None:
        if self._done:
            return
        self._done = True
        self._value, self._error = value, error
        for waiter in self._waiters:
            self.ctx.schedule(0.0, waiter, self)
        self._waiters.clear()

    def resolve(self, value: Any = None) -> None:
        """Resolve with *value* (idempotent; later calls ignored)."""
        self._settle(value, None)

    def fail(self, error: BaseException) -> None:
        """Fail with *error* (idempotent; later calls ignored)."""
        self._settle(None, error)

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        """Invoke *fn* with this future once it settles."""
        if self._done:
            self.ctx.schedule(0.0, fn, self)
        else:
            self._waiters.append(fn)


class Process:
    """A generator coroutine driven by a runtime context.

    The generator may ``yield``:
    - ``float | int`` — sleep that many seconds;
    - :class:`Future` — resume (with its value, or its exception thrown
      in) when it resolves;
    - ``None`` — yield the scheduler for one tick.

    The process itself exposes a :class:`Future` (``.completion``)
    resolving with the generator's return value.
    """

    __slots__ = ("ctx", "generator", "completion", "name")

    def __init__(
        self, ctx: "RuntimeContext", generator: Generator, name: str = ""
    ):
        self.ctx = ctx
        self.generator = generator
        self.completion = Future(ctx)
        self.name = name or getattr(generator, "__name__", "process")
        ctx.schedule(0.0, self._step, None, None)

    def _step(self, send_value: Any, throw_error: BaseException | None) -> None:
        try:
            if throw_error is not None:
                yielded = self.generator.throw(throw_error)
            else:
                yielded = self.generator.send(send_value)
        except StopIteration as stop:
            self.completion.resolve(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 — forwarded, not hidden
            self.completion.fail(exc)
            return
        if yielded is None:
            self.ctx.schedule(0.0, self._step, None, None)
        elif isinstance(yielded, (int, float)):
            self.ctx.schedule(float(yielded), self._step, None, None)
        elif isinstance(yielded, Future):
            yielded.add_callback(self._on_future)
        else:
            self.ctx.schedule(
                0.0,
                self._step,
                None,
                TypeError(f"process yielded unsupported {yielded!r}"),
            )

    def _on_future(self, future: Future) -> None:
        try:
            value = future.result()
        except BaseException as exc:  # noqa: BLE001 — forwarded into process
            self._step(None, exc)
            return
        self._step(value, None)


class Periodic:
    """A background daemon: run :meth:`_tick` every ``interval`` seconds
    until stopped.

    ``jitter`` desynchronises a fleet: each pause is drawn uniformly
    from ``interval * [1 - jitter/2, 1 + jitter/2]`` — one draw per tick
    from a dedicated RNG seeded with the daemon's *name* (also its
    process name), so daemons sharing an interval stop firing in
    lockstep while simulated replays stay byte-identical.
    """

    #: whether a :meth:`stop` that lands during the sleep still runs the
    #: tick that sleep was for
    finishes_round = False

    def __init__(
        self,
        ctx: "RuntimeContext",
        name: str,
        interval: float,
        *,
        jitter: float = 0.0,
        rng: random.Random | None = None,
    ):
        self.ctx = ctx
        self.name = name
        self.interval = interval
        self.jitter = jitter
        self.rng = rng or random.Random(name)
        self._running = False

    def start(self) -> None:
        """Start the background process (idempotent)."""
        if self._running:
            return
        self._running = True
        self.ctx.spawn(self._loop(), name=self.name)

    def stop(self) -> None:
        """Stop after the tick in progress."""
        self._running = False

    def _next_delay(self) -> float:
        if self.jitter <= 0:
            return self.interval
        spread = self.jitter * (self.rng.random() - 0.5)
        return self.interval * (1.0 + spread)

    def _loop(self) -> Generator:
        while self._running:
            yield self._next_delay()
            if self._running or self.finishes_round:
                yield from self._tick()

    def _tick(self) -> Generator:
        """One round of the daemon's work (a process body)."""
        raise NotImplementedError


class RuntimeContext:
    """The substrate contract: a clock plus deferred execution.

    Subclasses implement :attr:`now` and :meth:`schedule`; everything
    else (futures, processes, timeouts, gather) is derived.
    """

    @property
    def now(self) -> float:
        """Current time in seconds (virtual or monotonic wall clock)."""
        raise NotImplementedError

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)`` *delay* seconds from now; returns a handle
        whose ``cancel()`` drops the callback if it has not run."""
        raise NotImplementedError

    def future(self) -> Future:
        """Create a new unresolved :class:`Future`."""
        return Future(self)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a process coroutine; returns the Process (await its
        ``.completion``)."""
        return Process(self, generator, name)

    def timeout(
        self, future: Future, deadline: float, what: str = "",
        on_expiry: Callable[[], None] | None = None,
    ) -> Future:
        """A future that resolves like *future* but fails with
        :class:`TimeoutError_` if *deadline* seconds pass first (then
        *on_expiry*, when given, runs too)."""
        wrapped = self.future()

        def on_done(fut: Future) -> None:
            # A settled RPC must not leave its deadline (and, through
            # this closure, its response) in the timer heap for 30-60 s.
            timer.cancel()
            wrapped._settle(fut._value, fut._error)

        def on_deadline() -> None:
            wrapped.fail(TimeoutError_(f"timed out after {deadline}s: {what}"))
            if on_expiry is not None:
                on_expiry()

        future.add_callback(on_done)
        timer = self.schedule(deadline, on_deadline)
        return wrapped

    def gather(self, futures: Iterable[Future]) -> Future:
        """Future resolving with a list of all results (fails fast on the
        first failure)."""
        futures = list(futures)
        combined = self.future()
        if not futures:
            combined.resolve([])
            return combined
        remaining = {"count": len(futures)}
        results: list[Any] = [None] * len(futures)

        def make_callback(index: int) -> Callable[[Future], None]:
            def callback(fut: Future) -> None:
                if combined.done:
                    return
                try:
                    results[index] = fut.result()
                except BaseException as exc:  # noqa: BLE001
                    combined.fail(exc)
                    return
                remaining["count"] -= 1
                if remaining["count"] == 0:
                    combined.resolve(results)

            return callback

        for i, fut in enumerate(futures):
            fut.add_callback(make_callback(i))
        return combined

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Spawn a process, drive the context until it completes, and
        return its result."""
        raise NotImplementedError


class AsyncioContext(RuntimeContext):
    """Runtime context over a real asyncio event loop.

    Time is the loop's monotonic clock; ``schedule`` maps to
    ``call_soon``/``call_later``.  The same :class:`Process` generators
    the simulator drives run here against real sockets and wall time.
    """

    def __init__(self, loop=None):
        import asyncio

        self.loop = loop if loop is not None else asyncio.new_event_loop()

    @property
    def now(self) -> float:
        """The event loop's monotonic clock."""
        return self.loop.time()

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)`` on the loop after *delay* seconds.

        Negative delays clamp to "run now": against a wall clock,
        ``now`` moves between computing a deadline and scheduling it, so
        element code computing ``deadline - now`` legitimately lands a
        hair in the past (the simulator, whose clock only advances
        between callbacks, keeps its strict negative-delay error).

        So does any delay under the selector's 1 ms granularity (a
        router's 8.3 us model service time, armed as a timer, stalls the
        loop for 1 ms); ``call_soon`` still polls I/O between callbacks.
        """
        if delay < 1e-3:
            return self.loop.call_soon(fn, *args)
        return self.loop.call_later(delay, fn, *args)

    def as_asyncio_future(self, future: Future):
        """Bridge a runtime :class:`Future` into an awaitable
        ``asyncio.Future`` (for mixing with native coroutines)."""
        afut = self.loop.create_future()

        def on_done(fut: Future) -> None:
            if afut.done():
                return
            try:
                afut.set_result(fut.result())
            except BaseException as exc:  # noqa: BLE001
                afut.set_exception(exc)

        future.add_callback(on_done)
        return afut

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Spawn a process and run the loop until it completes (the
        blocking entry point, mirroring ``Simulator.run_process``)."""
        process = self.spawn(generator, name)
        return self.loop.run_until_complete(
            self.as_asyncio_future(process.completion)
        )
