"""A replica holds digests, not payloads: a memory ratchet.

Two replicas on :class:`SegmentedStore` take 256 records of 16 KiB under
``acks="all"``.  Their payloads live in each replica's log alone, so what
the fleet still holds in memory after the appends is a small fraction of
the bytes written; replicas that kept their payloads would hold about
twice them, one copy per replica, since each replica decodes its own
copy of the bytes it received (in the simulator as over TCP).
"""

import gc
import hashlib
import tracemalloc

from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.routing import GdpRouter, RoutingDomain
from repro.server import DataCapsuleServer
from repro.server.segmented import SegmentedStore
from repro.sim import SimNetwork

RECORDS = 256
RECORD_BYTES = 16 * 1024
BATCH = 8


def payload(index: int) -> bytes:
    return hashlib.sha256(b"ratchet-%d" % index).digest() * (RECORD_BYTES // 32)


def test_replicas_retain_a_fraction_of_the_bytes_written(tmp_path):
    net = SimNetwork(seed=5)
    router = GdpRouter(net, "r", RoutingDomain("global", clock=lambda: net.sim.now))
    servers = [
        DataCapsuleServer(net, f"s{i}", storage=SegmentedStore(str(tmp_path / f"s{i}")))
        for i in range(2)
    ]
    client = GdpClient(net, "writer")
    for node in (*servers, client):
        node.attach(router)
    writer_key = SigningKey.from_seed(b"ratchet-writer")
    console = OwnerConsole(client, SigningKey.from_seed(b"ratchet-owner"))

    def setup():
        for node in (*servers, client):
            yield node.advertise()
        metadata = console.design_capsule(writer_key.public)
        yield from console.place_capsule(metadata, [s.metadata for s in servers])
        yield 0.5
        return metadata

    metadata = net.sim.run_process(setup(), "setup")
    writer = client.open_writer(metadata, writer_key, acks="all")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for first in range(0, RECORDS, BATCH):
            receipt = net.sim.run_process(writer.append_stream(
                [payload(i) for i in range(first, first + BATCH)],
                acks="all",
                batch_records=BATCH,
                batch_bytes=BATCH * RECORD_BYTES,
            ), "append")
            assert receipt.acks == 2
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    for server in servers:
        assert server.hosted[metadata.name].capsule.last_seqno == RECORDS
    written = RECORDS * RECORD_BYTES
    assert retained < written / 4, f"{retained} B retained of {written} B written"
