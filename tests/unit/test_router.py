"""GDP-router mechanics: queueing, TTL, egress, FIB expiry."""

import pytest

from repro.crypto import SigningKey
from repro.naming import GdpName, make_client_metadata
from repro.routing import Endpoint, GdpRouter, RoutingDomain
from repro.routing.pdu import Pdu, T_DATA, T_NO_ROUTE
from repro.sim import SimNetwork


@pytest.fixture()
def star():
    net = SimNetwork(seed=17)
    clock = lambda: net.sim.now  # noqa: E731
    domain = RoutingDomain("global", clock=clock)
    router = GdpRouter(net, "r0", domain, service_time=0.001)
    key_a = SigningKey.from_seed(b"star-a")
    key_b = SigningKey.from_seed(b"star-b")
    a = Endpoint(net, "a", make_client_metadata(key_a, extra={"s": "a"}), key_a)
    b = Endpoint(net, "b", make_client_metadata(key_b, extra={"s": "b"}), key_b)
    a.attach(router, latency=0.0001)
    b.attach(router, latency=0.0001)

    def boot():
        yield a.advertise()
        yield b.advertise()

    net.sim.run_process(boot())
    return net, router, a, b


class TestForwardingMechanics:
    def test_service_time_queueing(self, star):
        """PDUs serialize through the forwarding engine at 1/service_time."""
        net, router, a, b = star
        arrivals = []
        b.on_request = lambda pdu: arrivals.append(net.sim.now) or None
        start = net.sim.now
        for i in range(10):
            a.send_pdu(Pdu(a.name, b.name, T_DATA, {"i": i}))
        net.sim.run(until=start + 1.0)
        assert len(arrivals) == 10
        # 10 PDUs at 1 ms service each: last arrival >= 10 ms after start.
        assert arrivals[-1] - start >= 0.010
        gaps = [t2 - t1 for t1, t2 in zip(arrivals, arrivals[1:])]
        assert all(gap == pytest.approx(0.001, abs=1e-6) for gap in gaps)

    def test_ttl_expiry_drops(self, star):
        net, router, a, b = star
        got = []
        b.on_request = lambda pdu: got.append(1) or None
        dead = Pdu(a.name, b.name, T_DATA, {}, ttl=0)
        a.send_pdu(dead)
        net.sim.run(until=net.sim.now + 1.0)
        assert got == []

    def test_no_route_bounce_carries_corr_id(self, star):
        net, router, a, b = star
        bounced = []
        original_receive = a.receive

        def spy(message, sender, link):
            if isinstance(message, Pdu) and message.ptype == T_NO_ROUTE:
                bounced.append(message)
            original_receive(message, sender, link)

        a.receive = spy
        ghost = GdpName(b"\xcc" * 32)
        request = Pdu(a.name, ghost, T_DATA, {})
        a.send_pdu(request)
        net.sim.run(until=net.sim.now + 1.0)
        assert len(bounced) == 1
        assert bounced[0].corr_id == request.corr_id
        assert GdpName(bounced[0].payload["unreachable"]) == ghost
        assert router.metrics.counter("router.no_route").value == 1

    def test_no_route_bounce_never_bounces(self, star):
        """A no_route about an unroutable source must not loop."""
        net, router, a, b = star
        ghost = GdpName(b"\xcd" * 32)
        orphan = Pdu(ghost, GdpName(b"\xce" * 32), T_DATA, {})
        a.send_pdu(orphan)
        net.sim.run(until=net.sim.now + 1.0)  # must terminate quietly

    def test_stats_accumulate(self, star):
        net, router, a, b = star
        b.on_request = lambda pdu: None
        before = router.metrics.counter("router.forwarded").value
        for i in range(4):
            a.send_pdu(Pdu(a.name, b.name, T_DATA, {"i": i}))
        net.sim.run(until=net.sim.now + 1.0)
        assert router.metrics.counter("router.forwarded").value == before + 4
        assert router.metrics.counter("router.bytes").value > 0

    def test_fib_expiry_forces_relookup(self, star):
        """An expired cache entry is dropped and re-resolved through the
        GLookupService (simulated on a non-attached name by demoting
        b's binding from the attachment table to an expired FIB entry)."""
        net, router, a, b = star
        b.on_request = lambda pdu: None
        endpoint_node = router.attached.pop(b.name)
        router.fib[b.name] = (endpoint_node, net.sim.now - 1.0)  # expired
        queries = router.domain.glookup.metrics.counter("glookup.queries")
        queries_before = queries.value
        got = []
        b.on_request = lambda pdu: got.append(1) or None
        a.send_pdu(Pdu(a.name, b.name, T_DATA, {}))
        net.sim.run(until=net.sim.now + 0.5)
        assert queries.value > queries_before
        # Resolution recovered via the GLookup entry + attachment
        # restoration is not required for delivery through glookup path.
        assert b.name not in router.fib or router.fib[b.name][1] > net.sim.now - 0.5


class TestEgressModel:
    def test_egress_bandwidth_caps_throughput(self):
        net = SimNetwork(seed=18)
        clock = lambda: net.sim.now  # noqa: E731
        domain = RoutingDomain("global", clock=clock)
        router = GdpRouter(
            net, "r0", domain, service_time=1e-6,
            egress_bandwidth=10_000.0,  # 10 kB/s NIC
        )
        key_a = SigningKey.from_seed(b"eg-a")
        key_b = SigningKey.from_seed(b"eg-b")
        a = Endpoint(net, "a", make_client_metadata(key_a, extra={"g": 1}), key_a)
        b = Endpoint(net, "b", make_client_metadata(key_b, extra={"g": 2}), key_b)
        a.attach(router, latency=0.0001, bandwidth=1e9)
        b.attach(router, latency=0.0001, bandwidth=1e9)
        arrivals = []
        b.on_request = lambda pdu: arrivals.append(net.sim.now) or None

        def boot():
            yield a.advertise()
            yield b.advertise()

        net.sim.run_process(boot())
        start = net.sim.now
        payload = b"\x00" * 920  # + 80 header = 1000 B per PDU
        for i in range(20):
            a.send_pdu(Pdu(a.name, b.name, T_DATA, payload))
        net.sim.run(until=start + 10.0)
        assert len(arrivals) == 20
        # 20 kB through a 10 kB/s NIC: ~2 s.
        assert arrivals[-1] - start == pytest.approx(2.0, rel=0.1)
