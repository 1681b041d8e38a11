"""Replication-plane suite (``repro bench --suite replication``).

Two scenarios, both run inside the deterministic network simulator (so
every number is a function of the protocol, not of runner hardware — the
emitted document is byte-stable across machines):

**Anti-entropy sync.**  A 5 000-record capsule replicated on two
servers, with 1% divergence (the lagging replica is missing every 100th
record), healed by one Merkle-delta round
(:func:`~repro.server.replication.sync_once`: root exchange, O(log n)
bisection, size-capped batched fetch).  Measured: bytes on the wire
(total and per healed record) and simulated seconds.

**Append pipeline.**  The same record stream written through the
one-PDU-per-append path (sequential ``append`` calls — one record, one
heartbeat, one round trip each) and through the batched/windowed
``append_stream`` (multi-record PDUs under a single tip heartbeat,
``window`` PDUs in flight).  Measured: records per simulated second.

The gate enforces the >=5x append-throughput floor plus the 30% band on
bytes per healed record, sync seconds and batched records/sec.
"""

from __future__ import annotations

from repro.bench.gate import Gate

__all__ = ["run", "GATES", "table"]

GATES = (
    Gate("ratios.append_speedup", "higher", floor=5.0),
    Gate("sync.bytes_per_synced_record", "lower"),
    Gate("sync.merkle_delta.seconds", "lower"),
    Gate("append.batched.records_per_sec", "higher"),
)

#: sync scenario shape (5k records, 1% divergence)
SYNC_RECORDS = 5_000
SYNC_DIVERGENCE_STRIDE = 100
#: append scenario shape
APPEND_RECORDS = 300
APPEND_PAYLOAD = 120
APPEND_BATCH = 64
APPEND_WINDOW = 8

#: the constrained inter-site link both scenarios cross (10 Mbit/s,
#: 1 ms propagation — an edge uplink, where batching actually matters)
_LINK_BANDWIDTH = 1_250_000.0
_LINK_LATENCY = 0.001


def _mint_history():
    """Mint the 5k-record history (the only wall-clock-expensive
    step)."""
    from repro.capsule import CapsuleWriter
    from repro.crypto import SigningKey
    from repro.naming import make_capsule_metadata

    owner = SigningKey.from_seed(b"bench-repl-owner")
    writer_key = SigningKey.from_seed(b"bench-repl-writer")
    metadata = make_capsule_metadata(
        owner, writer_key.public, pointer_strategy="chain"
    )
    writer = CapsuleWriter(metadata, writer_key)
    minted = []
    for i in range(SYNC_RECORDS):
        minted.append(writer.append(b"sync-record-%06d" % i))
    return owner, metadata, minted


def _two_site_net(
    seed: int, latency: float = _LINK_LATENCY, bandwidth: float = _LINK_BANDWIDTH
):
    """Two routers joined by one link (the constrained one unless told
    otherwise); returns ``(net, r0, r1)``."""
    from repro.routing import GdpRouter, RoutingDomain
    from repro.sim import SimNetwork

    net = SimNetwork(seed=seed)
    domain = RoutingDomain("global", clock=lambda: net.sim.now)
    r0 = GdpRouter(net, "r0", domain)
    r1 = GdpRouter(net, "r1", domain)
    net.connect(r0, r1, latency=latency, bandwidth=bandwidth)
    return net, r0, r1


def _build_sync_world(owner, metadata, minted):
    """Two servers across the constrained link, capsule placed on both,
    then the divergence injected directly: server ``a`` holds the full
    history, server ``b`` is missing every ``SYNC_DIVERGENCE_STRIDE``-th
    record (and its heartbeat)."""
    from repro.capsule.capsule import run_wire
    from repro.client import GdpClient, OwnerConsole
    from repro.routing.pdu import T_DATA, Pdu
    from repro.runtime.dispatch import dispatch_op
    from repro.server import DataCapsuleServer

    net, r0, r1 = _two_site_net(seed=1009)
    server_a = DataCapsuleServer(net, "a")
    server_a.attach(r0, latency=0.0001)
    server_b = DataCapsuleServer(net, "b")
    server_b.attach(r1, latency=0.0001)
    client = GdpClient(net, "bench_client")
    client.attach(r0, latency=0.0001)
    console = OwnerConsole(client, owner)

    def setup():
        yield server_a.advertise()
        yield server_b.advertise()
        yield client.advertise()
        yield from console.place_capsule(
            metadata, [server_a.metadata, server_b.metadata]
        )
        yield 0.5

    net.sim.run_process(setup(), "bench-sync-setup")
    for record, heartbeat in minted:
        # a sibling's replicate_batch, delivered directly: admitted, stored
        body = {"op": "replicate_batch", **run_wire([record], heartbeat)}
        holders = [server_a] + [server_b] * bool(record.seqno % SYNC_DIVERGENCE_STRIDE)
        for server in holders:
            dispatch_op(server, Pdu(client.name, server.name, T_DATA, body), body)
    return net, server_a, server_b


def _run_sync(owner, metadata, minted) -> dict:
    """Heal the divergence with one ``sync_once`` round; returns
    bytes/seconds/records measurements."""
    from repro.server.replication import sync_once

    net, server_a, server_b = _build_sync_world(owner, metadata, minted)
    bytes_before = net.bytes_on_wire()
    time_before = net.sim.now
    fetched = net.sim.run_process(
        sync_once(server_b, metadata.name, server_a.name, timeout=120.0),
        "bench-sync",
    )
    measured = {
        "bytes": net.bytes_on_wire() - bytes_before,
        "seconds": round(net.sim.now - time_before, 6),
        "fetched": fetched,
    }
    expected = SYNC_RECORDS // SYNC_DIVERGENCE_STRIDE
    if fetched != expected:
        raise RuntimeError(
            f"sync benchmark healed {fetched} records, expected {expected}"
        )
    if (server_a.hosted[metadata.name].capsule.canonical_summary()
            != server_b.hosted[metadata.name].capsule.canonical_summary()):
        raise RuntimeError("sync benchmark did not converge the replicas")
    return measured


def _run_append(batched: bool) -> dict:
    """Write APPEND_RECORDS records over the constrained link, either
    one PDU per append (sequential) or batched/windowed; returns the
    records-per-simulated-second measurement."""
    from repro.client import GdpClient, OwnerConsole
    from repro.crypto import SigningKey
    from repro.server import DataCapsuleServer

    net, r0, r1 = _two_site_net(seed=2003)
    server = DataCapsuleServer(net, "srv")
    server.attach(r0, latency=0.0001)
    client = GdpClient(net, "bench_writer")
    client.attach(r1, latency=0.0001)
    owner = SigningKey.from_seed(b"bench-append-owner")
    writer_key = SigningKey.from_seed(b"bench-append-writer")
    console = OwnerConsole(client, owner)
    payloads = [
        b"%06d:" % i + b"x" * (APPEND_PAYLOAD - 7)
        for i in range(APPEND_RECORDS)
    ]
    elapsed = {}

    def scenario():
        yield server.advertise()
        yield client.advertise()
        metadata = console.design_capsule(
            writer_key.public, pointer_strategy="chain"
        )
        yield from console.place_capsule(metadata, [server.metadata])
        yield 0.5
        writer = client.open_writer(metadata, writer_key)
        start = net.sim.now
        if batched:
            yield from writer.append_stream(
                payloads,
                window=APPEND_WINDOW,
                batch_records=APPEND_BATCH,
            )
        else:
            for payload in payloads:
                yield from writer.append(payload)
        elapsed["seconds"] = net.sim.now - start
        tip = server.hosted[metadata.name].capsule.last_seqno
        if tip != APPEND_RECORDS:
            raise RuntimeError(
                f"append benchmark landed {tip} records, "
                f"expected {APPEND_RECORDS}"
            )

    net.sim.run_process(scenario(), "bench-append")
    return {
        "seconds": round(elapsed["seconds"], 6),
        "records_per_sec": round(APPEND_RECORDS / elapsed["seconds"], 1),
    }


def run(quick: bool = False, note=lambda message: None) -> dict:
    """Run both scenarios; returns the BENCH_replication.json
    document (dict).  Deterministic: simulated time and simulated bytes
    only, so the document is identical on every machine (and already
    CI-sized: *quick* changes nothing)."""
    note(f"minting {SYNC_RECORDS}-record history")
    owner, metadata, minted = _mint_history()
    note("sync: merkle-delta")
    delta = _run_sync(owner, metadata, minted)
    note("append: one PDU per append")
    sequential = _run_append(batched=False)
    note("append: batched/windowed stream")
    batched = _run_append(batched=True)

    ratios = {
        "append_speedup": round(
            batched["records_per_sec"] / sequential["records_per_sec"], 2
        ),
    }
    return {
        "schema": "gdp-bench-replication/1",
        "sync": {
            "capsule_records": SYNC_RECORDS,
            "divergent_records": SYNC_RECORDS // SYNC_DIVERGENCE_STRIDE,
            "merkle_delta": delta,
            "bytes_per_synced_record": round(
                delta["bytes"] / delta["fetched"], 1
            ),
        },
        "append": {
            "records": APPEND_RECORDS,
            "payload_bytes": APPEND_PAYLOAD,
            "batch_records": APPEND_BATCH,
            "window": APPEND_WINDOW,
            "per_record": sequential,
            "batched": batched,
        },
        "ratios": ratios,
    }


def table(doc: dict) -> list:
    """The sync heal, then the two append pipelines."""
    sync, append = doc["sync"], doc["append"]
    delta = sync["merkle_delta"]
    return [
        f"sync: {sync['capsule_records']} records, "
        f"{sync['divergent_records']} divergent",
        (
            ("protocol", "bytes on wire", "sim seconds", "bytes/record"),
            [("merkle delta", f"{delta['bytes']:,}", f"{delta['seconds']:.4f}",
              f"{sync['bytes_per_synced_record']:,.0f}")],
        ),
        "",
        f"append: {append['records']} x {append['payload_bytes']}B records "
        f"(batch={append['batch_records']}, window={append['window']})",
        (
            ("pipeline", "records/sec", "sim seconds"),
            [
                (label, f"{append[cell]['records_per_sec']:,.0f}",
                 f"{append[cell]['seconds']:.4f}")
                for label, cell in (("one PDU each", "per_record"),
                                    ("batched stream", "batched"))
            ],
        ),
        f"speedup: {doc['ratios']['append_speedup']:.2f}x",
    ]
