#!/usr/bin/env python3
"""Quickstart: DataCapsules and the Global Data Plane in ~80 lines.

Creates a two-domain GDP (cloud + edge), places a DataCapsule on both,
appends records, reads them back with verified integrity proofs, and
shows tamper detection.

Run:  python examples/quickstart.py
"""

from repro.adversary import StorageTamperer
from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.errors import GdpError
from repro.routing import GdpRouter, RoutingDomain
from repro.server import DataCapsuleServer
from repro.sim import GBPS, SimNetwork


def main():
    # --- infrastructure: two routing domains, two servers -------------
    net = SimNetwork(seed=1)
    clock = lambda: net.sim.now  # noqa: E731
    cloud = RoutingDomain("global", clock=clock)
    edge = RoutingDomain("global.edge", cloud)
    r_cloud = GdpRouter(net, "r_cloud", cloud)
    r_edge = GdpRouter(net, "r_edge", edge)
    net.connect(r_edge, r_cloud, latency=0.02, bandwidth=GBPS)
    edge.attach_to_parent(r_edge, r_cloud)

    cloud_server = DataCapsuleServer(net, "cloud_server")
    cloud_server.attach(r_cloud)
    edge_server = DataCapsuleServer(net, "edge_server")
    edge_server.attach(r_edge)

    # --- principals: an owner/writer client and a reader ---------------
    client = GdpClient(net, "sensor_hub")
    client.attach(r_edge)
    reader = GdpClient(net, "analyst")
    reader.attach(r_cloud)

    owner_key = SigningKey.generate()
    writer_key = SigningKey.generate()
    console = OwnerConsole(client, owner_key)

    def scenario():
        # Everyone advertises their names (challenge-response, §VII).
        for endpoint in (cloud_server, edge_server, client, reader):
            yield endpoint.advertise()

        # The owner designs a capsule and delegates both servers.
        metadata = console.design_capsule(
            writer_key.public, pointer_strategy="skiplist",
            label="temperature-lab-42",
        )
        placement = yield from console.place_capsule(
            metadata, [cloud_server.metadata, edge_server.metadata]
        )
        yield 0.5  # servers re-advertise the new name
        print(f"capsule {metadata.name.human()} placed on "
              f"{len(placement.servers)} servers")

        # The single writer appends; anycast picks the edge replica.
        writer = client.open_writer(metadata, writer_key)
        for i in range(5):
            receipt = yield from writer.append(b"reading=%d" % (20 + i))
            print(f"  appended record {receipt.seqno} (acks={receipt.acks})")
        receipt = yield from writer.append(b"critical=1", acks="all")
        print(f"  appended record {receipt.seqno} durably "
              f"(acks={receipt.acks})")
        yield 1.0  # background replication

        # A reader elsewhere fetches with cryptographic proofs.
        result = yield from reader.read(metadata.name, 3)
        print(f"verified read: record 3 = {result.record.payload!r}")
        result = yield from reader.read_range(metadata.name, 1, 6)
        print(f"verified range: {[r.payload for r in result.records]}")

        # An evil operator tampers with the cloud replica...
        StorageTamperer(cloud_server).corrupt_record(metadata.name, 2)
        fresh_reader = GdpClient(net, "auditor")
        fresh_reader.attach(r_cloud)
        yield fresh_reader.advertise()
        try:
            yield from fresh_reader.read(metadata.name, 2)
            print("!! tampering went unnoticed (this must not happen)")
        except GdpError as exc:
            print(f"tampering detected as expected: {type(exc).__name__}")
        return metadata

    metadata = net.sim.run_process(scenario())
    print(f"done at simulated t={net.sim.now:.3f}s; "
          f"edge served {edge_server.stats['appends']} appends, "
          f"cloud replicated {cloud_server.stats['replications']}")


if __name__ == "__main__":
    main()
