"""Endpoint RPC plumbing: correlation, timeouts, dispatch."""

import pytest

from repro.crypto import SigningKey
from repro.errors import RoutingError, TimeoutError_
from repro.naming import GdpName, make_client_metadata
from repro.routing import Endpoint, GdpRouter, RoutingDomain
from repro.routing.pdu import Pdu, T_PUSH, T_RESPONSE
from repro.runtime.transport import DEFAULT_MAX_FRAME
from repro.sim import SimNetwork


@pytest.fixture()
def pair():
    net = SimNetwork(seed=8)
    clock = lambda: net.sim.now  # noqa: E731
    domain = RoutingDomain("global", clock=clock)
    router = GdpRouter(net, "r0", domain)
    key_a = SigningKey.from_seed(b"ep-a")
    key_b = SigningKey.from_seed(b"ep-b")
    a = Endpoint(net, "a", make_client_metadata(key_a, extra={"e": "a"}), key_a)
    b = Endpoint(net, "b", make_client_metadata(key_b, extra={"e": "b"}), key_b)
    a.attach(router)
    b.attach(router)
    return net, router, a, b


def bootstrap(net, *endpoints):
    def body():
        for endpoint in endpoints:
            yield endpoint.advertise()

    net.sim.run_process(body())


class TestRpc:
    def test_request_response(self, pair):
        net, router, a, b = pair
        b.on_request = lambda pdu: {"ok": True, "got": pdu.payload["x"]}
        bootstrap(net, a, b)

        def scenario():
            reply = yield a.rpc(b.name, {"x": 7})
            return reply

        assert net.sim.run_process(scenario()) == {"ok": True, "got": 7}

    def test_concurrent_rpcs_correlate(self, pair):
        net, router, a, b = pair
        b.on_request = lambda pdu: {"echo": pdu.payload["i"]}
        bootstrap(net, a, b)

        def scenario():
            futures = [a.rpc(b.name, {"i": i}) for i in range(5)]
            replies = yield net.sim.gather(futures)
            return [r["echo"] for r in replies]

        assert net.sim.run_process(scenario()) == [0, 1, 2, 3, 4]

    def test_timeout(self, pair):
        net, router, a, b = pair
        b.on_request = lambda pdu: None  # never replies
        bootstrap(net, a, b)

        def scenario():
            with pytest.raises(TimeoutError_):
                yield a.rpc(b.name, {"x": 1}, timeout=1.0)
            return True

        assert net.sim.run_process(scenario())

    def test_future_response(self, pair):
        """on_request may return a Future; the reply goes out when it
        resolves."""
        net, router, a, b = pair

        def slow_handler(pdu):
            future = b.ctx.future()
            b.ctx.schedule(0.5, future.resolve, {"ok": True, "slow": True})
            return future

        b.on_request = slow_handler
        bootstrap(net, a, b)

        def scenario():
            t0 = net.sim.now
            reply = yield a.rpc(b.name, {})
            return reply, net.sim.now - t0

        reply, elapsed = net.sim.run_process(scenario())
        assert reply["slow"] and elapsed >= 0.5

    def test_handler_exception_becomes_error_reply(self, pair):
        net, router, a, b = pair

        def broken(pdu):
            raise ValueError("kaput")

        b.on_request = broken
        bootstrap(net, a, b)

        def scenario():
            return (yield a.rpc(b.name, {}))

        reply = net.sim.run_process(scenario())
        assert not reply["ok"]
        assert "kaput" in reply["error"]

    def test_unframeable_reply_becomes_error_reply(self, pair):
        """A reply too large for one transport frame is answered with a
        short error envelope; nothing raises out of the delivery path."""
        net, router, a, b = pair
        b.on_request = lambda pdu: {"blob": bytes(DEFAULT_MAX_FRAME + 1)}
        bootstrap(net, a, b)

        def scenario():
            return (yield a.rpc(b.name, {}, timeout=5.0))

        reply = net.sim.run_process(scenario())
        assert not reply["ok"]
        assert "exceeds frame limit" in reply["error"]

    def test_no_route_fails_rpc(self, pair):
        net, router, a, b = pair
        bootstrap(net, a, b)

        def scenario():
            with pytest.raises(RoutingError):
                yield a.rpc(GdpName(b"\xaa" * 32), {}, timeout=5.0)
            return True

        assert net.sim.run_process(scenario())

    def test_unsolicited_response_ignored(self, pair):
        net, router, a, b = pair
        bootstrap(net, a, b)
        stray = Pdu(b.name, a.name, T_RESPONSE, {"ok": True}, corr_id=999999)
        b.send_pdu(stray)
        net.sim.run(until=2.0)  # must not raise

    def test_rpc_before_attach_rejected(self):
        net = SimNetwork(seed=9)
        key = SigningKey.from_seed(b"lonely")
        lonely = Endpoint(
            net, "lonely", make_client_metadata(key, extra={"e": "l"}), key
        )
        with pytest.raises(RoutingError):
            lonely.rpc(GdpName(b"\x01" * 32), {})


class TestPushAndDefaults:
    def test_default_on_request_refuses(self, pair):
        net, router, a, b = pair
        bootstrap(net, a, b)

        def scenario():
            return (yield a.rpc(b.name, {"op": "anything"}))

        reply = net.sim.run_process(scenario())
        assert not reply["ok"]

    def test_push_dispatches_to_hook(self, pair):
        net, router, a, b = pair
        seen = []
        b.on_push = lambda pdu: seen.append(pdu.payload)
        bootstrap(net, a, b)
        a.send_pdu(Pdu(a.name, b.name, T_PUSH, {"n": 1}))
        net.sim.run(until=2.0)
        assert seen == [{"n": 1}]

    def test_double_advertise_guard(self, pair):
        net, router, a, b = pair
        a.advertise()
        with pytest.raises(RoutingError):
            a.advertise()
