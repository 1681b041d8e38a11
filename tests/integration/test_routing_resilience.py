"""Routing-plane resilience end to end: leases, failover, quarantine.

The scenarios the routing fixes exist for — a replica crashes and its
routes *lapse* instead of black-holing, clients fail over to the next
anycast replica, subscriptions survive replica death without duplicate
deliveries, withdrawn names disappear from every router in the domain,
and dead names stop hammering the GLookup hierarchy.
"""

import random

import pytest

from repro.errors import GdpError, RoutingError, TimeoutError_
from repro.naming import GdpName
from repro.routing import LeaseRefreshDaemon

pytestmark = pytest.mark.tier1

LEASE = 2.0


class TestLeaseLifecycle:
    def test_crashed_server_routes_lapse(self, mini_gdp):
        """With leases on, a silently dead server's routes age out on
        their own; readers get a clean routing failure, not a
        black-hole, and the GLookup tier is clean."""
        g = mini_gdp
        g.server_edge.lease_ttl = LEASE

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"payload")
            result = yield from g.reader_client.read(metadata.name, 1)
            assert result.record.payload == b"payload"
            g.server_edge.crash()
            yield LEASE + 1.0  # no refresh daemon: the lease lapses
            with pytest.raises(GdpError):
                yield from g.reader_client.read(
                    metadata.name, 1, timeout=2.0
                )
            return metadata

        metadata = g.run(scenario())
        assert g.edge_domain.glookup.lookup(metadata.name) == []
        assert g.root_domain.glookup.lookup(metadata.name) == []

    def test_refresh_daemon_keeps_capsule_routable(self, mini_gdp):
        """A live server with a short lease stays reachable indefinitely
        because the refresh daemon re-advertises in time."""
        g = mini_gdp
        g.server_edge.lease_ttl = LEASE
        daemon = LeaseRefreshDaemon(g.server_edge, rng=random.Random(41))

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"still-here")
            daemon.start()
            yield 3 * LEASE  # several lease generations
            result = yield from g.reader_client.read(metadata.name, 1)
            daemon.stop()
            return result.record.payload

        assert g.run(scenario()) == b"still-here"
        assert g.server_edge.metrics.counter("lease.refreshed").value >= 2


class TestClientFailover:
    def test_read_fails_over_to_surviving_replica(self, mini_gdp):
        """Crashing the replica a reader resolved to makes the next read
        time out once, invalidate the route, and land on the sibling."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"replicated", acks="all")
            first = yield from g.reader_client.read(metadata.name, 1)
            dead = (
                g.server_root
                if first.server == g.server_root.name
                else g.server_edge
            )
            survivor = (
                g.server_edge if dead is g.server_root else g.server_root
            )
            dead.crash()
            second = yield from g.reader_client.read(
                metadata.name, 1, timeout=2.0
            )
            assert second.record.payload == b"replicated"
            assert second.server == survivor.name
            # The reporter's router quarantined the dead replica and
            # counted the failover.
            router = g.reader_client.router
            assert dead.name in router._quarantine
            assert router.metrics.counter("router.failovers").value >= 1
            return True

        assert g.run(scenario())

    def test_subscription_survives_replica_crash_without_duplicates(
        self, mini_gdp
    ):
        """A subscriber re-attaches to the surviving replica, backfills
        the outage gap, and the application sees every record exactly
        once."""
        g = mini_gdp
        delivered = []

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from g.reader_client.subscribe(
                metadata.name,
                lambda record, heartbeat: delivered.append(record.seqno),
            )
            for i in range(3):
                yield from writer.append(b"pre-%d" % i, acks="all")
            yield 0.5  # pushes land
            sub = g.reader_client._subscriptions[metadata.name]
            serving = (
                g.server_root
                if sub.server == g.server_root.name
                else g.server_edge
            )
            serving.crash()
            # Appends continue against the survivor during the outage.
            for i in range(2):
                yield from writer.append(b"gap-%d" % i, acks="any")
            # A failed read triggers failover (route invalidation +
            # quarantine), then the resync re-subscribes elsewhere and
            # backfills what the dead replica never pushed.
            yield from g.reader_client.read_latest(metadata.name, timeout=2.0)
            resynced = yield from g.reader_client.resync_subscriptions()
            assert resynced == 1
            yield from writer.append(b"post", acks="any")
            yield 0.5  # final push lands
            assert g.reader_client.metrics.counter(
                "client.resubscribed"
            ).value == 1
            assert sub.server is not None
            assert sub.server != serving.name
            return True

        assert g.run(scenario())
        assert delivered == [1, 2, 3, 4, 5, 6]

    def test_route_invalidate_quarantines_reported_replica(self, mini_gdp):
        """A direct T_ROUTE_INVALIDATE report steers anycast away from
        the named replica even while it is still advertised."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"steered", acks="all")
            router = g.reader_client.router
            before = router.metrics.counter("router.failovers").value
            g.reader_client.report_route_failure(
                metadata.name, principal=g.server_root.name
            )
            yield 0.5  # report lands
            assert router.metrics.counter("router.failovers").value == before + 1
            assert g.server_root.name in router._quarantine
            result = yield from g.reader_client.read(metadata.name, 1)
            # Anycast would otherwise pick the root-local replica.
            assert result.server == g.server_edge.name
            return True

        assert g.run(scenario())


class TestWithdrawCoherence:
    def test_withdraw_culls_fib_across_the_domain_tree(self, mini_gdp):
        """A withdrawal at one router must purge cached routes on every
        router in the domain tree — a sibling's stale FIB entry would
        otherwise black-hole until its TTL lapsed (hours later)."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x")
            yield from g.reader_client.read(metadata.name, 1)
            # The read through the root router cached a route there.
            assert metadata.name in g.r_root.fib
            g.server_edge.withdraw([metadata.name])
            yield 0.5  # withdrawal processed at r_edge
            assert metadata.name not in g.r_edge.fib
            assert metadata.name not in g.r_root.fib
            return metadata

        metadata = g.run(scenario())
        assert g.edge_domain.glookup.lookup(metadata.name) == []
        assert g.root_domain.glookup.lookup(metadata.name) == []


class TestNegativeCache:
    def test_repeated_misses_short_circuit(self, mini_gdp):
        """A second request for a dead name inside ``NEG_TTL`` is
        answered from the router's negative cache without another
        GLookup climb."""
        g = mini_gdp
        ghost = GdpName(b"\xdd" * 32)

        def probe():
            corr_id, future = g.reader_client.request(
                ghost, {"op": "read_range", "capsule": ghost.raw}, timeout=2.0
            )
            try:
                yield future
            except (RoutingError, TimeoutError_):
                pass

        def scenario():
            yield from g.bootstrap()
            yield from probe()
            queries = g.root_domain.glookup.metrics.counter("glookup.queries")
            queries_before = queries.value
            yield 0.2  # still inside the 1 s NEG_TTL
            yield from probe()
            assert queries.value == queries_before
            return True

        assert g.run(scenario())
        assert g.r_root.metrics.counter("glookup.negative_hits").value >= 1
