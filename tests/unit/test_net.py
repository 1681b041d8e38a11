"""Simulated network: latency, bandwidth, asymmetry, loss, partitions."""

import pytest

from repro.runtime.middleware import DROP, DeliveryMiddleware
from repro.sim.net import Node, SimNetwork


class Sink(Node):
    def __init__(self, network, node_id):
        super().__init__(network, node_id)
        self.received = []

    def receive(self, message, sender, link):
        self.received.append((message, self.ctx.now))


def pair(seed=0, **link_kwargs):
    net = SimNetwork(seed=seed)
    a, b = Sink(net, "a"), Sink(net, "b")
    defaults = {"latency": 0.01, "bandwidth": 1000.0}
    defaults.update(link_kwargs)
    link = net.connect(a, b, **defaults)
    return net, a, b, link


class TestDelivery:
    def test_latency_applied(self):
        net, a, b, _ = pair()
        a.send(b, "hello", 0)
        net.sim.run()
        assert b.received == [("hello", 0.01)]

    def test_serialization_time(self):
        # 1000 bytes at 1000 B/s = 1 s + 10 ms latency.
        net, a, b, _ = pair()
        a.send(b, "big", 1000)
        net.sim.run()
        assert b.received[0][1] == pytest.approx(1.01)

    def test_back_to_back_queueing(self):
        """Two messages share the line: the second waits for the first's
        serialization."""
        net, a, b, _ = pair()
        a.send(b, "m1", 1000)
        a.send(b, "m2", 1000)
        net.sim.run()
        times = [t for _, t in b.received]
        assert times[0] == pytest.approx(1.01)
        assert times[1] == pytest.approx(2.01)

    def test_directions_independent(self):
        net, a, b, _ = pair()
        a.send(b, "to-b", 1000)
        b.send(a, "to-a", 1000)
        net.sim.run()
        assert b.received[0][1] == pytest.approx(1.01)
        assert a.received[0][1] == pytest.approx(1.01)

    def test_asymmetric_bandwidth(self):
        net, a, b, _ = pair(bandwidth=1000.0, bandwidth_up=100.0)
        a.send(b, "up", 1000)   # a->b at 1000 B/s
        b.send(a, "down", 1000)  # b->a at 100 B/s
        net.sim.run()
        assert b.received[0][1] == pytest.approx(1.01)
        assert a.received[0][1] == pytest.approx(10.01)

    def test_throughput_saturates_at_line_rate(self):
        net, a, b, _ = pair(bandwidth=10_000.0, latency=0.001)
        for i in range(100):
            a.send(b, i, 1000)
        net.sim.run()
        # 100 kB at 10 kB/s: last arrival ~10 s.
        assert b.received[-1][1] == pytest.approx(10.001)


class TestLossAndFailure:
    def test_deterministic_loss(self):
        net, a, b, link = pair(loss=0.5, seed=42)
        for i in range(100):
            a.send(b, i, 1)
        net.sim.run()
        delivered = len(b.received)
        assert 30 <= delivered <= 70
        assert link.metrics.counter("net.dropped").value == 100 - delivered
        # Same seed -> same outcome.
        net2, a2, b2, _ = pair(loss=0.5, seed=42)
        for i in range(100):
            a2.send(b2, i, 1)
        net2.sim.run()
        assert len(b2.received) == delivered

    def test_link_failure_drops(self):
        net, a, b, link = pair()
        link.fail()
        a.send(b, "lost", 1)
        net.sim.run()
        assert b.received == []

    def test_link_recovery(self):
        net, a, b, link = pair()
        link.fail()
        a.send(b, "lost", 1)
        link.recover()
        a.send(b, "found", 1)
        net.sim.run()
        assert [m for m, _ in b.received] == ["found"]

    def test_in_flight_dropped_on_failure(self):
        net, a, b, link = pair(latency=1.0)
        a.send(b, "in-flight", 1)
        net.sim.schedule(0.5, link.fail)
        net.sim.run()
        assert b.received == []

    def test_invalid_parameters(self):
        net = SimNetwork()
        a, b = Sink(net, "a"), Sink(net, "b")
        with pytest.raises(ValueError):
            net.connect(a, b, latency=-1, bandwidth=1)
        with pytest.raises(ValueError):
            net.connect(a, b, latency=0, bandwidth=0)
        with pytest.raises(ValueError):
            net.connect(a, b, latency=0, bandwidth=1, loss=1.0)


class TestTopologyBookkeeping:
    def test_duplicate_node_id_rejected(self):
        net = SimNetwork()
        Sink(net, "x")
        with pytest.raises(ValueError):
            Sink(net, "x")

    def test_send_without_link_rejected(self):
        net = SimNetwork()
        a, b = Sink(net, "a"), Sink(net, "b")
        with pytest.raises(ValueError):
            a.send(b, "m", 1)

    def test_neighbors(self):
        net, a, b, _ = pair()
        assert a.neighbors() == [b]
        assert b.neighbors() == [a]

    def test_delivery_hooks(self):
        net, a, b, _ = pair()
        dropped = []

        class DropAll(DeliveryMiddleware):
            def on_deliver(self, link, sender, receiver, message, size):
                dropped.append(message)
                return DROP

        hook = net.delivery.use(DropAll())
        a.send(b, "x", 1)
        net.sim.run()
        assert b.received == []
        assert dropped == ["x"]
        net.delivery.remove(hook)
        a.send(b, "y", 1)
        net.sim.run()
        assert [m for m, _ in b.received] == ["y"]

    def test_stats(self):
        net, a, b, link = pair()
        a.send(b, "m", 500)
        net.sim.run()
        assert link.metrics.counter("net.sent").value == 1
        assert link.metrics.counter("net.bytes").value == 500
