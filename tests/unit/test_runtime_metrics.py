"""The metrics registry: counters, histograms, snapshot/reset, NULL."""

from repro.runtime.metrics import (
    NULL,
    Counter,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_reset(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0


class TestHistogram:
    def test_observe_and_summary(self):
        histogram = Histogram("lat")
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert histogram.mean == 2.0

    def test_empty_histogram(self):
        assert Histogram("lat").summary()["count"] == 0
        assert Histogram("lat").quantile(0.5) is None

    def test_quantile_is_its_bucket_upper_edge(self):
        """A quantile never reads below the exact one, and above it by
        less than one bucket (1/8 of a power of two)."""
        values = [0.001 * (i + 1) for i in range(1000)]
        histogram = Histogram("lat")
        for value in reversed(values):
            histogram.observe(value)
        for q in (0.01, 0.5, 0.95, 0.99, 1.0):
            exact = values[round(q * 1000) - 1]
            assert exact <= histogram.quantile(q) <= exact * 1.125
        assert histogram.quantile(1.0) == 1.125  # 1.0 opens [1, 1.125)
        assert histogram.quantile(0.0) == histogram.quantile(0.001)

    def test_quantile_of_values_at_or_below_zero_is_zero(self):
        histogram = Histogram("hops")
        for value in (0, 0, 0, 5):
            histogram.observe(value)
        assert histogram.quantile(0.75) == 0.0
        assert histogram.quantile(1.0) == 5.5


class TestRegistry:
    def test_instruments_are_cached_per_scope_and_name(self):
        registry = MetricsRegistry()
        a = registry.counter("node1", "router.forwarded")
        b = registry.counter("node1", "router.forwarded")
        assert a is b
        assert registry.counter("node2", "router.forwarded") is not a

    def test_node_view(self):
        registry = MetricsRegistry()
        metrics = registry.node("server_a")
        metrics.counter("server.appends").inc(3)
        assert registry.counter("server_a", "server.appends").value == 3

    def test_snapshot_is_sorted_and_complete(self):
        registry = MetricsRegistry()
        registry.counter("b_node", "net.sent").inc(2)
        registry.counter("a_node", "net.bytes").inc(100)
        registry.histogram("a_node", "rpc.latency").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a_node", "b_node"]
        assert snapshot["b_node"]["net.sent"] == 2
        assert snapshot["a_node"]["net.bytes"] == 100
        assert snapshot["a_node"]["rpc.latency"]["count"] == 1

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        counter = registry.counter("n", "c")
        counter.inc(9)
        registry.histogram("n", "h").observe(1.0)
        registry.reset()
        assert counter.value == 0
        assert registry.snapshot()["n"]["h"]["count"] == 0

    def test_disabled_registry_hands_out_null(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("n", "c")
        assert counter is NULL
        counter.inc(100)  # no-op, no error
        assert counter.value == 0
        histogram = registry.histogram("n", "h")
        histogram.observe(1.0)
        assert registry.snapshot() == {}
