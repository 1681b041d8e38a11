"""QoS attribution mechanics (no network): what a client's request,
reply and deadline hooks leave in its ``qos.*`` instruments, and
:func:`violators` over them."""

from repro.client import GdpClient
from repro.client.qos import violators
from repro.naming import GdpName
from repro.sim import SimNetwork

S1 = GdpName(b"\x01" * 32)
S2 = GdpName(b"\x02" * 32)


def make_client():
    net = SimNetwork()
    return GdpClient(net, "c"), net


def advance(net, seconds):
    def wait():
        yield seconds

    net.sim.run_process(wait())


def sent(client, corr_id):
    """What :meth:`GdpClient.request` records for *corr_id*."""
    client._sent[corr_id] = client.ctx.now


def provider(client, server):
    """(ok, errors, latency histogram) attributed to *server*."""
    prefix = f"qos.{server.hex()}."
    return (
        client.metrics.counter(prefix + "ok").value,
        client.metrics.counter(prefix + "errors").value,
        client.metrics.histogram(prefix + "latency"),
    )


def attributed(client):
    return {
        name for name in client.metrics.snapshot()
        if name.startswith("qos.") and name != "qos.timeouts"
    }


class TestTracking:
    def test_latency_measured(self):
        client, net = make_client()
        sent(client, 1)
        advance(net, 0.25)
        client._attribute(1, S1, ok=True)
        _, _, latency = provider(client, S1)
        assert (latency.count, latency.min, latency.max) == (1, 0.25, 0.25)
        assert latency.mean == 0.25

    def test_multiple_providers_separate(self):
        client, net = make_client()
        sent(client, 1)
        client._attribute(1, S1, ok=True)
        sent(client, 2)
        client._attribute(2, S2, ok=False)
        assert provider(client, S1)[:2] == (1, 0)
        assert provider(client, S2)[:2] == (0, 1)

    def test_unmatched_response_still_counts(self):
        client, net = make_client()
        client._attribute(99, S1, ok=True)  # no request recorded
        ok, _, latency = provider(client, S1)
        assert ok == 1
        assert latency.count == 0
        assert latency.quantile(0.5) is None

    def test_timeout_counted(self):
        client, net = make_client()
        sent(client, 1)
        client._expired(1)
        assert client.metrics.counter("qos.timeouts").value == 1
        assert attributed(client) == set()
        assert client._sent == {}

    def test_p95(self):
        client, net = make_client()
        latencies = []
        for i in range(100):
            sent(client, i)
            start = net.sim.now
            advance(net, 0.001 * (i + 1))
            latencies.append(net.sim.now - start)
            client._attribute(i, S1, ok=True)
        _, _, latency = provider(client, S1)
        assert latency.quantile(0.95) >= sorted(latencies)[94]


class TestViolators:
    def fill(self, client, net, server, latency, ok_pattern):
        for i, ok in enumerate(ok_pattern):
            corr = hash((server, i)) % 10**9
            sent(client, corr)
            advance(net, latency)
            client._attribute(corr, server, ok=ok)

    def test_latency_violation(self):
        client, net = make_client()
        self.fill(client, net, S1, 0.5, [True] * 4)
        self.fill(client, net, S2, 0.01, [True] * 4)
        assert violators(client, max_mean_latency=0.1) == [S1]

    def test_error_rate_violation(self):
        client, net = make_client()
        self.fill(client, net, S1, 0.01, [True, False, False, False])
        self.fill(client, net, S2, 0.01, [True, True, True, True])
        assert violators(client, max_error_rate=0.5) == [S1]

    def test_min_requests_filters_noise(self):
        client, net = make_client()
        self.fill(client, net, S1, 0.5, [True])
        assert violators(client, max_mean_latency=0.1, min_requests=2) == []

    def test_no_thresholds_no_violators(self):
        client, net = make_client()
        self.fill(client, net, S1, 0.5, [False] * 3)
        assert violators(client) == []

    def test_error_rate_zero_when_empty(self):
        client, net = make_client()
        _, _, latency = provider(client, S1)  # instruments, no replies
        assert violators(client, max_error_rate=0.0, min_requests=0) == []
        assert latency.count == 0
