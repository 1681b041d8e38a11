"""Advertisement leases, FIB lease caps, and handshake hardening.

Regression tests for the routing-resilience fixes: each test here fails
against the pre-lease router (FIB entries outliving their advertisement
evidence, challenge handshakes consumable from the wrong link, TTL
drops miscounted as resolution misses, wire expiries truncated to
milliseconds).
"""

import random

import pytest

from repro.crypto import SigningKey
from repro.errors import AdvertisementError, GdpError
from repro.naming import GdpName, make_client_metadata
from repro.routing import Endpoint, GdpRouter, LeaseRefreshDaemon, RoutingDomain
from repro.routing.glookup import expiry_from_wire, wire_expiry
from repro.routing.pdu import Pdu, T_ADV_RESPONSE, T_DATA
from repro.routing.router import ADVERT_DOMAIN_TAG, FIB_TTL
from repro.sim import SimNetwork


@pytest.fixture()
def star():
    net = SimNetwork(seed=23)
    clock = lambda: net.sim.now  # noqa: E731
    domain = RoutingDomain("global", clock=clock)
    router = GdpRouter(net, "r0", domain, service_time=0.001)
    key_a = SigningKey.from_seed(b"lease-a")
    key_b = SigningKey.from_seed(b"lease-b")
    a = Endpoint(net, "a", make_client_metadata(key_a, extra={"s": "a"}), key_a)
    b = Endpoint(net, "b", make_client_metadata(key_b, extra={"s": "b"}), key_b)
    a.attach(router, latency=0.0001)
    b.attach(router, latency=0.0001)
    return net, router, a, b


def _adv_response(endpoint, router, nonce, *, rtcert=True):
    """A correctly signed T_ADV_RESPONSE for *nonce* (what the endpoint
    itself would send back for that challenge)."""
    from repro.delegation.certs import RtCert

    return Pdu(
        endpoint.name,
        router.name,
        T_ADV_RESPONSE,
        {
            "metadata": endpoint.metadata.to_wire(),
            "signature": endpoint.key.sign(
                ADVERT_DOMAIN_TAG + nonce + router.name.raw
            ),
            "rtcert": RtCert.issue(
                endpoint.key, endpoint.name, router.name, expires_at=None
            ).to_wire() if rtcert else None,
            "catalog": [],
            "expires_at": None,
        },
    )


class TestWireExpiry:
    def test_round_trip_is_exact(self):
        """Lease expiries travel as packed IEEE-754 floats, not
        truncated milliseconds: decode(encode(t)) == t bit-for-bit."""
        rng = random.Random(99)
        for _ in range(200):
            t = rng.uniform(0.0, 10_000_000.0)
            assert expiry_from_wire(wire_expiry(t)) == t

    def test_none_is_the_null_sentinel(self):
        assert wire_expiry(None) is None
        assert expiry_from_wire(None) is None

    def test_garbage_raises(self):
        for garbage in ("soon", -1, 8001):  # incl. the old int-ms form
            with pytest.raises(AdvertisementError):
                expiry_from_wire(garbage)


class TestLeaseCappedInstall:
    def test_install_caps_fib_expiry_at_lease(self, star):
        """A FIB entry must never outlive its advertisement evidence:
        expiry = min(now + FIB_TTL, lease)."""
        net, router, a, b = star
        name = GdpName(b"\xaa" * 32)
        lease = net.sim.now + 2.0
        router._install(name, b, lease=lease)
        _, expiry = router.fib[name]
        assert expiry == lease
        assert expiry < net.sim.now + FIB_TTL

    def test_install_without_lease_uses_fib_ttl(self, star):
        net, router, a, b = star
        name = GdpName(b"\xab" * 32)
        router._install(name, b)
        _, expiry = router.fib[name]
        assert expiry == pytest.approx(net.sim.now + FIB_TTL)

    def test_advertised_lease_lapses_in_glookup(self, star):
        """An endpoint advertising with a short lease disappears from
        resolution once the lease runs out — no withdrawal needed."""
        net, router, a, b = star

        def scenario():
            yield a.advertise()
            yield b.advertise(expires_at=net.sim.now + 1.0)
            entries = router.domain.glookup.lookup(b.name)
            assert entries and not entries[0].is_expired(net.sim.now)
            yield 2.0  # outlive the lease

        net.sim.run_process(scenario())
        assert router.domain.glookup.lookup(b.name) == []


class TestHandshakeHardening:
    def test_response_from_wrong_link_is_ignored(self, star):
        """A correctly signed T_ADV_RESPONSE arriving over a different
        link than the HELLO must neither complete nor consume the
        handshake — the honest response can still land afterwards."""
        net, router, a, b = star
        nonce = b"\x11" * 32
        router._pending_challenges[b.name] = (nonce, b)
        response = _adv_response(b, router, nonce)
        # Replayed over a's link: ignored, challenge intact.
        router.receive(response, a, None)
        net.sim.run(until=net.sim.now + 0.1)
        assert b.name not in router.attached
        assert router._pending_challenges[b.name] == (nonce, b)
        # The same bytes over the authenticated link still complete it.
        router.receive(response, b, None)
        net.sim.run(until=net.sim.now + 0.1)
        assert router.attached.get(b.name) is b
        assert b.name not in router._pending_challenges

    def test_failed_handshake_retries_with_fresh_hello(self, star):
        """A spent nonce is not a dead end: after a rejected response the
        endpoint re-attaches with a fresh HELLO/challenge round."""
        net, router, a, b = star
        nonce = b"\x22" * 32
        router._pending_challenges[b.name] = (nonce, b)
        # Signed against the wrong nonce: verification fails cleanly.
        bad = _adv_response(b, router, b"\x00" * 32, rtcert=False)
        router.receive(bad, b, None)
        net.sim.run(until=net.sim.now + 0.1)
        assert b.name not in router.attached
        assert b.name not in router._pending_challenges  # nonce spent

        def retry():
            yield b.advertise()

        net.sim.run_process(retry())
        assert router.attached.get(b.name) is b


class TestCountersAndIndex:
    def test_ttl_exhaustion_counts_separately(self, star):
        """A hop-exhausted PDU is a ``router.ttl_expired``, not a
        ``router.no_route`` — loop symptoms and resolution misses must
        stay separable in the metrics."""
        net, router, a, b = star
        a.send_pdu(Pdu(a.name, GdpName(b"\xbb" * 32), T_DATA, {}, ttl=0))
        net.sim.run(until=net.sim.now + 0.5)
        assert router.metrics.counter("router.ttl_expired").value == 1
        assert router.metrics.counter("router.no_route").value == 0

    def test_domain_router_index_is_maintained(self):
        net = SimNetwork(seed=29)
        clock = lambda: net.sim.now  # noqa: E731
        domain = RoutingDomain("global", clock=clock)
        r1 = GdpRouter(net, "ix1", domain)
        r2 = GdpRouter(net, "ix2", domain)
        assert domain.router_by_name(r1.name) is r1
        assert domain.router_by_name(r2.name) is r2
        assert domain.router_by_name(None) is None
        domain.remove_router(r1)
        assert domain.router_by_name(r1.name) is None
        assert r1 not in domain.routers


class TestLeaseRefreshDaemon:
    def test_refresh_keeps_routes_alive_past_the_lease(self, star):
        net, router, a, b = star
        b.lease_ttl = 1.0
        daemon = LeaseRefreshDaemon(b, rng=random.Random(7))

        def scenario():
            yield b.advertise()
            daemon.start()
            yield 5.0
            daemon.stop()

        net.sim.run_process(scenario())
        assert daemon.refreshes >= 4
        # Well past the original 1 s lease, the name still resolves.
        entries = router.domain.glookup.lookup(b.name)
        assert entries and not entries[0].is_expired(net.sim.now)

    def test_crashed_endpoint_skips_refresh_and_lease_lapses(self, star):
        net, router, a, b = star
        b.lease_ttl = 1.0
        daemon = LeaseRefreshDaemon(b, rng=random.Random(8))

        def scenario():
            yield b.advertise()
            b.crashed = True
            daemon.start()
            yield 5.0
            daemon.stop()

        net.sim.run_process(scenario())
        assert daemon.refreshes == 0
        assert router.domain.glookup.lookup(b.name) == []

    def test_needs_interval_or_lease(self, star):
        net, router, a, b = star
        assert b.lease_ttl is None
        with pytest.raises(GdpError):
            LeaseRefreshDaemon(b)
