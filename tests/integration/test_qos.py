"""QoS accountability: per-provider attribution and SLA checks."""

import pytest

from repro.client.qos import violators


@pytest.fixture()
def tracked(mini_gdp):
    """The mini GDP: every client attributes its verified replies."""
    return mini_gdp


def attributed(client):
    """Hex names of the servers *client* attributed a reply to."""
    return {
        name.split(".")[1]
        for name in client.metrics.snapshot()
        if name.startswith("qos.") and name.endswith(".ok")
    }


def provider(client, server):
    """*client*'s QoS instruments for *server*: ok and error counts and
    the latency histogram."""
    prefix = f"qos.{server.hex()}."
    return (
        client.metrics.counter(prefix + "ok").value,
        client.metrics.counter(prefix + "errors").value,
        client.metrics.histogram(prefix + "latency"),
    )


class TestAttribution:
    def test_responses_attributed_to_the_serving_replica(self, tracked):
        g = tracked

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(3):
                yield from writer.append(b"r%d" % i)
            yield 1.0
            for seqno in (1, 2, 3):
                yield from g.reader_client.read(metadata.name, seqno)
            return True

        g.run(scenario())
        # reader_client sits at the root; anycast serves it from
        # server_root — every read attributed there.
        assert g.server_root.name.hex() in attributed(g.reader_client)
        ok, errors, latency = provider(g.reader_client, g.server_root.name)
        assert ok >= 3
        assert errors == 0
        assert latency.count and latency.mean > 0

    def test_latency_reflects_distance(self, tracked):
        """Reads served across the WAN cost measurably more than the
        advertised numbers suggest locally."""
        g = tracked

        def scenario():
            yield from g.bootstrap()
            # Capsule only on the *edge* server: the root-side reader
            # pays the 20 ms inter-domain link.
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"far")
            yield from g.reader_client.read(metadata.name, 1)
            return True

        g.run(scenario())
        _, _, latency = provider(g.reader_client, g.server_edge.name)
        assert latency.mean > 0.04  # ≥ 1 RTT over the 20 ms link

    def test_error_responses_counted(self, tracked):
        g = tracked

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_root.metadata])
            from repro.errors import GdpError

            with pytest.raises(GdpError):
                yield from g.reader_client.read(metadata.name, 99)
            return True

        g.run(scenario())
        _, errors, _ = provider(g.reader_client, g.server_root.name)
        assert errors >= 1

    def test_timeouts_counted_without_attribution(self, tracked):
        g = tracked

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_root.metadata])
            g.server_root.crash()
            corr_id, future = g.reader_client.request(
                metadata.name,
                {
                    "op": "read_range",
                    "capsule": metadata.name.raw,
                    "first": 1,
                    "last": 1,
                },
                timeout=2.0,
            )
            from repro.errors import TimeoutError_

            with pytest.raises(TimeoutError_):
                yield future
            return True

        g.run(scenario())
        assert g.reader_client.metrics.counter("qos.timeouts").value == 1


class TestSlaViolations:
    def test_violators_by_latency_threshold(self, tracked):
        g = tracked

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x")
            yield from g.reader_client.read(metadata.name, 1)
            return True

        g.run(scenario())
        client = g.reader_client
        # The cross-WAN provider violates a 10 ms SLA...
        assert violators(client, max_mean_latency=0.010) == [g.server_edge.name]
        # ...but not a generous 10 s one.
        assert violators(client, max_mean_latency=10.0) == []

    def test_violators_by_error_rate(self, tracked):
        g = tracked

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_root.metadata])
            from repro.errors import GdpError

            with pytest.raises(GdpError):
                yield from g.reader_client.read(metadata.name, 42)
            return True

        g.run(scenario())
        # The flow was one ok (metadata fetch) + one error (bad read):
        # error rate 0.5, breaching a 0.4 SLA.
        breached = violators(g.reader_client, max_error_rate=0.4)
        assert breached == [g.server_root.name]

    def test_min_requests_gate(self, tracked):
        g = tracked

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_root.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x")
            yield from g.reader_client.read(metadata.name, 1)
            return True

        g.run(scenario())
        assert violators(
            g.reader_client, max_mean_latency=0.0, min_requests=100
        ) == []
