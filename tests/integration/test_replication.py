"""Leaderless replication: background propagation, anti-entropy, holes."""

from repro.server import AntiEntropyDaemon
from repro.server.replication import sync_once


class TestBackgroundPropagation:
    def test_appends_propagate_to_all_replicas(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(6):
                yield from writer.append(b"r%d" % i)
            yield 2.0
            return metadata

        metadata = g.run(scenario())
        for server in (g.server_root, g.server_edge):
            capsule = server.hosted[metadata.name].capsule
            assert capsule.last_seqno == 6
            assert capsule.holes() == []
            assert capsule.verify_history() == 6


class TestAntiEntropy:
    def test_hole_heals_after_partition(self, mini_gdp):
        """Records appended while the inter-domain link is down leave
        the remote replica behind; anti-entropy repairs it."""
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"before")
            yield 1.0
            link.fail()
            for i in range(3):
                yield from writer.append(b"during-%d" % i)
            yield 1.0
            link.recover()
            g.r_edge.flush_fib()
            g.r_root.flush_fib()
            # One manual anti-entropy round from the stale replica.
            fetched = yield from sync_once(
                g.server_root, metadata.name, g.server_edge.name
            )
            return metadata, fetched

        metadata, fetched = g.run(scenario())
        assert fetched == 3
        remote = g.server_root.hosted[metadata.name].capsule
        assert remote.last_seqno == 4
        assert remote.holes() == []
        assert remote.verify_history() == 4

    def test_daemon_converges_replicas(self, mini_gdp):
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)
        daemon = AntiEntropyDaemon(g.server_root, interval=1.0)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            daemon.start()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            link.fail()  # background pushes all fail
            for i in range(4):
                yield from writer.append(b"r%d" % i)
            link.recover()
            g.r_edge.flush_fib()
            g.r_root.flush_fib()
            yield 5.0  # a few daemon rounds
            daemon.stop()
            return metadata

        metadata = g.run(scenario())
        assert g.server_root.metrics.counter("server.sync.fetched").value == 4
        assert g.server_root.hosted[metadata.name].capsule.last_seqno == 4

    def test_sync_is_idempotent(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(3):
                yield from writer.append(b"r%d" % i)
            yield 1.0
            first = yield from sync_once(
                g.server_root, metadata.name, g.server_edge.name
            )
            second = yield from sync_once(
                g.server_root, metadata.name, g.server_edge.name
            )
            return first, second

        first, second = g.run(scenario())
        assert first == 0  # already converged via background pushes
        assert second == 0

    def test_sync_survives_unreachable_sibling(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            g.server_edge.crash()
            fetched = yield from sync_once(
                g.server_root, metadata.name, g.server_edge.name
            )
            return fetched

        assert g.run(scenario()) == 0  # no exception, just no progress

    def test_bidirectional_convergence(self, mini_gdp):
        """Two replicas that each hold records the other lacks converge
        to the union via one round each."""
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"shared")
            yield 1.0
            # Partition, then hand records 2..3 only to the edge replica
            # (writer is edge-local); nothing new reaches root.
            link.fail()
            yield from writer.append(b"edge-only-2")
            yield from writer.append(b"edge-only-3")
            yield 0.5
            link.recover()
            g.r_edge.flush_fib()
            g.r_root.flush_fib()
            yield from sync_once(g.server_root, metadata.name, g.server_edge.name)
            yield from sync_once(g.server_edge, metadata.name, g.server_root.name)
            return metadata

        metadata = g.run(scenario())
        a = g.server_root.hosted[metadata.name].capsule.state_summary()
        b = g.server_edge.hosted[metadata.name].capsule.state_summary()
        assert a == b
