"""Socket smoke: the quickstart workload against a real 3-process fleet.

The same client/server/router classes that run in simulation here run as
OS processes speaking length-prefixed PDU frames over loopback TCP.
Marked ``transport`` (excluded from tier-1; the socket-smoke CI job runs
``pytest -m transport``).
"""

import os

import pytest

from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.errors import GdpError
from repro.fleet import FleetLauncher, FleetSpec
from repro.naming import GdpName
from repro.server.storage import SegmentedStore

pytestmark = pytest.mark.transport


@pytest.fixture()
def fleet(tmp_path):
    spec = FleetSpec(
        3,
        str(tmp_path / "rendezvous"),
        storage_root=str(tmp_path / "data"),
    )
    launcher = FleetLauncher(spec)
    launcher.start()
    ports = launcher.wait_ready()
    yield spec, launcher, ports
    if launcher.alive():
        launcher.stop()


def connect_client(spec, port, node_id="smoke_client"):
    from repro.runtime.context import AsyncioContext
    from repro.runtime.socketnet import SocketNetwork

    ctx = AsyncioContext()
    net = SocketNetwork(ctx, seed=17)
    client = GdpClient(net, node_id)
    channel = ctx.loop.run_until_complete(
        client.transport.dial(spec.host, port)
    )
    client.attach_channel(channel, GdpName(channel.remote_name_raw))
    return ctx, client


class TestSocketFleet:
    def test_quickstart_workload(self, fleet):
        spec, launcher, ports = fleet
        ctx, client = connect_client(spec, ports[0])
        owner_key = SigningKey.from_seed(b"smoke-owner")
        writer_key = SigningKey.from_seed(b"smoke-writer")
        console = OwnerConsole(client, owner_key)
        replicas = [spec.server_metadata(0), spec.server_metadata(1)]

        def scenario():
            yield client.advertise()
            metadata = console.design_capsule(
                writer_key.public, pointer_strategy="skiplist"
            )
            placement = yield from console.place_capsule(metadata, replicas)
            assert len(placement.servers) == 2
            yield 0.5
            writer = client.open_writer(metadata, writer_key)
            receipts = []
            for i in range(5):
                receipt = yield from writer.append(
                    b"record-%d" % i, acks="all"
                )
                receipts.append(receipt)
            # acks="all" means both processes acked before we saw it.
            assert all(r.acks == 2 for r in receipts)
            # Read-your-writes with proof verification (the client
            # library verifies hash-chain membership on every read).
            got = yield from client.read(metadata.name, 3)
            assert got.record.payload == b"record-2"
            result = yield from client.read_range(metadata.name, 1, 5)
            assert [r.payload for r in result.records] == [
                b"record-%d" % i for i in range(5)
            ]
            # The one read op with its open bounds: through the tip.
            latest = yield from client.read_latest(metadata.name)
            assert latest.record.payload == b"record-4"
            assert latest.proof.position.heartbeat.seqno == 5
            tail = yield from client.read_range(metadata.name, 1)
            assert tail.records == result.records
            return metadata

        metadata = ctx.run_process(scenario(), "smoke")
        assert metadata is not None
        # The wire really was used: PDUs in both directions.
        assert client.transport.sent > 0
        assert client.transport.delivered > 0

    def test_migration_over_sockets(self, fleet):
        """Place on processes 0 and 1, migrate 0 -> 2: an ``acks="all"``
        append is acked by both remaining replicas and process 2 serves
        it.  The client attaches to process 1: a fleet routes a capsule
        name only to its own process's server, so process 0's router has
        no route once its replica retires."""
        spec, launcher, ports = fleet
        ctx, client = connect_client(spec, ports[1])
        owner_key = SigningKey.from_seed(b"smoke-owner-4")
        writer_key = SigningKey.from_seed(b"smoke-writer-4")
        console = OwnerConsole(client, owner_key)
        servers = [spec.server_metadata(i) for i in range(3)]

        def scenario():
            yield client.advertise()
            metadata = console.design_capsule(
                writer_key.public, pointer_strategy="chain"
            )
            placement = yield from console.place_capsule(metadata, servers[:2])
            yield 0.5
            writer = client.open_writer(metadata, writer_key)
            yield from writer.append(b"before", acks="all")
            placement = yield from console.migrate_replica(
                placement, servers[0], servers[2]
            )
            receipt = yield from writer.append(b"after", acks="all")
            body, _ = yield from client.ask(
                servers[2].name,
                {"op": "read_range", "capsule": metadata.name.raw, "first": 1},
                capsule=metadata.name,
            )
            served = [wire["payload"] for wire in body["records"]]
            return placement, receipt, served

        placement, receipt, served = ctx.run_process(scenario(), "migrate")
        assert placement.servers == sorted(
            [servers[1].name, servers[2].name], key=lambda name: name.raw
        )
        assert receipt.acks == 2
        assert served == [b"before", b"after"]

    def test_tampered_record_detected_over_sockets(self, fleet):
        spec, launcher, ports = fleet
        ctx, client = connect_client(spec, ports[0])
        owner_key = SigningKey.from_seed(b"smoke-owner-2")
        writer_key = SigningKey.from_seed(b"smoke-writer-2")
        console = OwnerConsole(client, owner_key)

        def scenario():
            yield client.advertise()
            metadata = console.design_capsule(
                writer_key.public, pointer_strategy="chain"
            )
            yield from console.place_capsule(
                metadata, [spec.server_metadata(0)]
            )
            yield 0.5
            writer = client.open_writer(metadata, writer_key)
            for i in range(3):
                yield from writer.append(b"r%d" % i)
            # A wrong-seqno read must fail verification cleanly, not
            # hang or crash the fleet.
            try:
                yield from client.read(metadata.name, 99)
            except GdpError:
                return True
            return False

        assert ctx.run_process(scenario(), "tamper") is True

    def test_drained_fleet_loses_no_acked_records(self, fleet, tmp_path):
        spec, launcher, ports = fleet
        ctx, client = connect_client(spec, ports[0])
        owner_key = SigningKey.from_seed(b"smoke-owner-3")
        writer_key = SigningKey.from_seed(b"smoke-writer-3")
        console = OwnerConsole(client, owner_key)
        replicas = [spec.server_metadata(0), spec.server_metadata(1)]

        def scenario():
            yield client.advertise()
            metadata = console.design_capsule(
                writer_key.public, pointer_strategy="chain"
            )
            yield from console.place_capsule(metadata, replicas)
            yield 0.5
            writer = client.open_writer(metadata, writer_key)
            acked = []
            for i in range(10):
                receipt = yield from writer.append(b"durable-%d" % i)
                acked.append(receipt.record.seqno)
            return metadata, acked

        metadata, acked = ctx.run_process(scenario(), "durable")

        summaries = launcher.stop()
        assert all(s.get("drain_ms") is not None for s in summaries), (
            f"some processes exited without draining: {summaries}"
        )
        # Read process 0's log cold, exactly as a restart would.  The
        # fleet ran under "drain": nothing was fsynced until the drain.
        store = SegmentedStore(os.path.join(spec.storage_root, "s0"))
        persisted = {
            wire["seqno"]
            for tag, wire in store.load_entries(metadata.name)
            if tag == "r"
        }
        store.close()
        missing = set(acked) - persisted
        assert not missing, f"acked records lost across drain: {missing}"
        # Relaunch over the same disks: process 0 recovers its hosting
        # and its records before it advertises, and serves every one.
        relaunched = FleetSpec(
            spec.processes,
            str(tmp_path / "rendezvous-relaunch"),
            storage_root=spec.storage_root,
        )
        relauncher = FleetLauncher(relaunched)
        relauncher.start()
        try:
            ports = relauncher.wait_ready()
            ctx, client = connect_client(relaunched, ports[0], "relaunch_client")

            def read_back():
                yield client.advertise()
                result = yield from client.read_range(metadata.name, 1)
                return [record.seqno for record in result.records]

            assert ctx.run_process(read_back(), "read_back") == acked
        finally:
            relauncher.stop()
