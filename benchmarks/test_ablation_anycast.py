"""Ablation A4 (§VII, Table I "Locality"): anycast to the closest
replica.

"The GDP network natively supports locality and anycast to the closest
replica and enables clients to satisfy their performance requirements."
We place one capsule with and without a client-local replica in a
federated campus and measure read latency; with a local replica the
request never leaves the client's domain.
"""

from __future__ import annotations

import statistics

from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.server import DataCapsuleServer
from repro.sim import federated_campus

N_READS = 6


def run_reads(local_replica: bool) -> dict:
    topo = federated_campus(n_domains=3, seed=3)
    net = topo.net
    # Servers: one in site0 (client-local candidate), one in site2.
    server_local = DataCapsuleServer(net, "srv_local")
    server_local.attach(topo.router("site0_r1"), latency=0.001)
    server_remote = DataCapsuleServer(net, "srv_remote")
    server_remote.attach(topo.router("site2_r1"), latency=0.001)
    client = GdpClient(net, "reader")
    client.attach(topo.router("site0_r0"), latency=0.001)
    writer_client = GdpClient(net, "writer")
    writer_client.attach(topo.router("site2_r0"), latency=0.001)

    owner = SigningKey.from_seed(b"a4-owner")
    writer_key = SigningKey.from_seed(b"a4-writer")
    console = OwnerConsole(writer_client, owner)
    uplink = topo.router("site0_r0").link_to(topo.router("bb0"))

    placement = (
        [server_local.metadata, server_remote.metadata]
        if local_replica
        else [server_remote.metadata]
    )

    def scenario():
        for endpoint in (server_local, server_remote, client, writer_client):
            yield endpoint.advertise()
        metadata = console.design_capsule(writer_key.public)
        yield from console.place_capsule(metadata, placement)
        yield 0.5
        writer = writer_client.open_writer(metadata, writer_key)
        for i in range(3):
            yield from writer.append(b"record-%d" % i)
        yield 1.0  # replication settles
        crossings = uplink.metrics.counter("net.sent")
        crossings_before = crossings.value
        latencies = []
        for i in range(N_READS):
            t0 = net.sim.now
            yield from client.read(metadata.name, (i % 3) + 1)
            latencies.append((net.sim.now - t0) * 1000)
        return {
            "mean_ms": statistics.mean(latencies),
            "first_ms": latencies[0],
            "warm_ms": statistics.mean(latencies[1:]),
            "uplink_crossings": crossings.value - crossings_before,
        }

    return net.sim.run_process(scenario())


def test_a4_anycast_locality(benchmark, report):
    def both():
        return run_reads(local_replica=True), run_reads(local_replica=False)

    with_local, without_local = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    report.line(
        f"Ablation A4 — read latency (ms over {N_READS} reads), client in "
        "site0; replica placement varies"
    )
    report.table(
        ["placement", "mean_ms", "warm_ms", "uplink PDUs"],
        [
            ["local + remote replica",
             f"{with_local['mean_ms']:.1f}",
             f"{with_local['warm_ms']:.1f}",
             with_local["uplink_crossings"]],
            ["remote replica only",
             f"{without_local['mean_ms']:.1f}",
             f"{without_local['warm_ms']:.1f}",
             without_local["uplink_crossings"]],
        ],
    )
    # Locality: the local replica cuts latency by > 2x...
    assert with_local["mean_ms"] < without_local["mean_ms"] / 2
    # ...and keeps reads entirely inside the client's domain.
    assert with_local["uplink_crossings"] == 0
    assert without_local["uplink_crossings"] > 0
