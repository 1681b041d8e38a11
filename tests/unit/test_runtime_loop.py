"""What the scheduler must not pay for: timers a wall-clock loop cannot
honour (the selector sleeps in whole milliseconds) and RPC deadlines
that outlive their RPC.  Both contexts, same contract."""

import gc
import weakref

import pytest

from repro.crypto import SigningKey
from repro.errors import TimeoutError_
from repro.naming import make_client_metadata
from repro.routing import Endpoint, GdpRouter, RoutingDomain
from repro.routing.pdu import Pdu
from repro.runtime.context import AsyncioContext
from repro.runtime.socketnet import SocketNetwork
from repro.runtime.transport import local_pair
from repro.sim import Simulator, engine


class Response(dict):
    """A payload a weakref can watch (plain dicts cannot be)."""


@pytest.fixture()
def loop_pair():
    """a <-> router <-> b over in-process channels on one asyncio loop."""
    ctx = AsyncioContext()
    net = SocketNetwork(ctx, seed=3)
    router = GdpRouter(
        net, "r0", RoutingDomain("global", clock=lambda: ctx.now)
    )
    endpoints = []
    for label in ("a", "b"):
        key = SigningKey.from_seed(b"loop-" + label.encode())
        endpoint = Endpoint(
            net, label, make_client_metadata(key, extra={"e": label}), key
        )
        end, _ = local_pair(ctx, endpoint.transport, router.transport)
        endpoint.attach_channel(end, router.name)
        endpoints.append(endpoint)

    def advertise():
        for endpoint in endpoints:
            yield endpoint.advertise()

    ctx.run_process(advertise())
    yield ctx, router, *endpoints
    ctx.loop.close()


def live_timers(ctx):
    return [h for h in ctx.loop._scheduled if not h.cancelled()]


class TestWallClockLoop:
    def test_sub_millisecond_delay_is_not_a_timer(self):
        ctx = AsyncioContext()
        ran = []
        try:
            ctx.schedule(8.3e-6, ran.append, "soon")
            ctx.schedule(0.0, ran.append, "now")
            assert ctx.loop._scheduled == []
            long = ctx.schedule(0.002, ran.append, "later")
            assert ctx.loop._scheduled == [long]

            def wait():
                yield 0.01

            ctx.run_process(wait())
        finally:
            ctx.loop.close()
        assert ran == ["soon", "now", "later"]  # FIFO, then the timer

    def test_router_forwards_without_timers_in_arrival_order(self, loop_pair):
        ctx, router, a, b = loop_pair
        arrived = []
        b.on_request = lambda pdu: arrived.append(pdu.payload["i"])
        armed = []
        call_later = ctx.loop.call_later

        def recording_call_later(delay, *args):
            armed.append(delay)
            return call_later(delay, *args)

        ctx.loop.call_later = recording_call_later
        total = 300  # > 1 ms of modelled service time when sent at once

        def burst():
            for i in range(total):
                a.send_pdu(Pdu(a.name, b.name, "data", {"i": i}))
            while len(arrived) < total:
                yield 0.002

        ctx.run_process(burst())
        assert arrived == list(range(total))
        assert router.metrics.counter("router.forwarded").value >= total
        assert [delay for delay in armed if delay < 1e-3] == []

    def test_completed_rpcs_leave_no_timers_and_release_responses(
        self, loop_pair
    ):
        ctx, router, a, b = loop_pair
        responses = []

        def answer(pdu):
            responses.append(Response(ok=True, i=pdu.payload["i"]))
            return responses[-1]

        b.on_request = answer

        def calls():
            for i in range(40):
                reply = yield a.rpc(b.name, {"i": i}, timeout=30.0)
                assert reply["i"] == i
            yield 0.002  # let the last completion callbacks run

        ctx.run_process(calls())
        assert len(live_timers(ctx)) <= 1
        watch = weakref.ref(responses[0])
        del responses[:]
        gc.collect()
        assert watch() is None

    def test_unanswered_rpc_still_times_out(self, loop_pair):
        ctx, router, a, b = loop_pair
        b.on_request = lambda pdu: None  # never replies

        def call():
            start = ctx.now
            with pytest.raises(TimeoutError_):
                yield a.rpc(b.name, {"i": 0}, timeout=0.05)
            return ctx.now - start

        assert ctx.run_process(call()) >= 0.05


class TestSimulatedClock:
    def run_rpcs(self):
        """20 deadlines whose futures complete early; returns the final
        clock and how many events ran."""
        sim = Simulator()
        executed = 0
        step = sim.step

        def counting_step():
            nonlocal executed
            ran = step()
            executed += ran
            return ran

        sim.step = counting_step
        for i in range(20):
            future = sim.future()
            sim.schedule(0.1 * (i + 1), future.resolve, Response(i=i))
            sim.timeout(future, 30.0, "rpc")
        sim.run()
        return sim.now, executed

    def test_cancel_changes_neither_clock_nor_event_count(self, monkeypatch):
        cancelling = self.run_rpcs()
        # the parent's behaviour: deadlines are never cancelled
        monkeypatch.setattr(engine._Event, "cancel", lambda self: None)
        assert cancelling == self.run_rpcs()
        assert cancelling[0] == 30.0

    def test_cancelled_deadline_releases_the_response(self):
        sim = Simulator()
        future = sim.future()
        wrapped = sim.timeout(future, 30.0, "rpc")
        response = Response(ok=True)
        future.resolve(response)
        sim.run(until=1.0)
        assert wrapped.result() is response
        assert len(sim._queue) == 1  # the husk still pops at t=30
        watch = weakref.ref(response)
        del response, wrapped, future
        gc.collect()
        assert watch() is None
        sim.run()
        assert sim.now == 30.0

    def test_cancel_after_the_event_ran_is_harmless(self):
        sim = Simulator()
        ran = []
        handle = sim.schedule(1.0, ran.append, "x")
        sim.run()
        handle.cancel()
        handle.cancel()
        assert ran == ["x"]
