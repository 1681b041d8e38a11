"""Graceful drain: a draining server refuses new work, finishes
in-flight work, flushes storage, and loses nothing it ever acked.

Drain is a plain process body (``yield from server.drain()``), so the
whole lifecycle is testable in simulation — the socket fleet reuses the
identical code path on SIGTERM.
"""

import pytest

from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.routing import GdpRouter, RoutingDomain
from repro.server import DataCapsuleServer
from repro.server.storage import SegmentedStore
from repro.sim import SimNetwork


@pytest.fixture()
def world(tmp_path):
    net = SimNetwork(seed=5)
    domain = RoutingDomain("global", clock=lambda: net.sim.now)
    router = GdpRouter(net, "r0", domain)
    # "drain" leaves appends buffered in user space — exactly what
    # drain's sync() must flush before the process exits.
    storage = SegmentedStore(str(tmp_path / "srv"), fsync_policy="drain")
    server = DataCapsuleServer(net, "srv", storage=storage)
    server.attach(router)
    client = GdpClient(net, "cli")
    client.attach(router)
    owner = SigningKey.from_seed(b"drain-owner")
    writer_key = SigningKey.from_seed(b"drain-writer")
    console = OwnerConsole(client, owner)

    def bootstrap():
        yield server.advertise()
        yield client.advertise()
        metadata = console.design_capsule(
            writer_key.public, pointer_strategy="chain"
        )
        yield from console.place_capsule(metadata, [server.metadata])
        yield 0.5
        return metadata

    metadata = net.sim.run_process(bootstrap())
    writer = client.open_writer(metadata, writer_key)
    return net, server, client, metadata, writer, storage, tmp_path


class TestDrain:
    def test_acked_records_survive_drain(self, world):
        net, server, client, metadata, writer, storage, tmp_path = world
        acked = []

        def scenario():
            for i in range(8):
                receipt = yield from writer.append(b"acked-%d" % i)
                acked.append(receipt.record.seqno)
            drain_ms = yield from server.drain()
            return drain_ms

        drain_ms = net.sim.run_process(scenario())
        assert drain_ms >= 0.0
        assert server.draining and server._inflight == 0
        storage.close()

        # Reopen the same directory cold — what a restarted process sees.
        reopened = SegmentedStore(storage.root)
        entries = [
            wire for tag, wire in reopened.load_entries(metadata.name)
            if tag == "r"
        ]
        got = {entry["seqno"] for entry in entries}
        assert set(acked) <= got, f"acked records lost: {set(acked) - got}"

    def test_draining_server_refuses_new_ops(self, world):
        net, server, client, metadata, writer, storage, _ = world

        def scenario():
            yield from writer.append(b"before-drain")
            yield from server.drain()
            try:
                yield from writer.append(b"after-drain")
            except Exception as exc:
                return str(exc)
            return None

        error = net.sim.run_process(scenario())
        assert error is not None and "drain" in error

    def test_drain_waits_for_inflight_ops(self, tmp_path):
        # Two replicas + acks="all": the append is in flight at the
        # primary until the replication push round-trips, which gives
        # drain a real in-flight op to wait out.
        net = SimNetwork(seed=5)
        domain = RoutingDomain("global", clock=lambda: net.sim.now)
        router = GdpRouter(net, "r0", domain)
        primary = DataCapsuleServer(net, "primary")
        primary.attach(router)
        replica = DataCapsuleServer(net, "replica")
        replica.attach(router)
        client = GdpClient(net, "cli")
        client.attach(router)
        owner = SigningKey.from_seed(b"drain-owner")
        writer_key = SigningKey.from_seed(b"drain-writer")
        console = OwnerConsole(client, owner)
        results = {}

        def scenario():
            for endpoint in (primary, replica, client):
                yield endpoint.advertise()
            metadata = console.design_capsule(
                writer_key.public, pointer_strategy="chain"
            )
            yield from console.place_capsule(
                metadata, [primary.metadata, replica.metadata]
            )
            yield 0.5
            writer = client.open_writer(metadata, writer_key)

            def appender():
                receipt = yield from writer.append(b"inflight", acks="all")
                results["acked_seqno"] = receipt.record.seqno

            def drainer():
                # Catch the window while the replication ack is in the air.
                while primary._inflight == 0:
                    yield 0.0002
                results["drain_ms"] = yield from primary.drain()

            a = net.sim.spawn(appender(), "appender")
            d = net.sim.spawn(drainer(), "drainer")
            yield a.completion
            yield d.completion

        net.sim.run_process(scenario())
        assert "acked_seqno" in results  # the in-flight append completed
        assert results["drain_ms"] > 0.0  # drain actually waited

    def test_drain_observes_metric(self, world):
        net, server, client, metadata, writer, storage, _ = world

        def scenario():
            yield from writer.append(b"one")
            return (yield from server.drain())

        net.sim.run_process(scenario())
        snapshot = net.metrics.snapshot()["srv"]
        histogram = snapshot["server.drain_ms"]
        assert histogram["count"] == 1
