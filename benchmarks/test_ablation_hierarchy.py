"""Ablation A6 (§VII): hierarchical resolution scalability.

"To ensure scalability, locality of access, and security of routing, we
use two principles: (a) a hierarchical structure for routing enabled by
routing-domains, and (b) independently verifiable routing state."

Two scalability measurements:

A6a — resolution across the hierarchy: a reader and a capsule at depth
*d* in two sibling branches; the request must climb to the common
ancestor and descend.  Cost (first-read latency, routers traversed,
GLookup queries) should grow linearly in *d* — and *warm* reads should
be depth-independent at the FIB.

A6b — the DHT global tier: lookup message count vs network size stays
logarithmic (the "highly distributed and scalable GLookupService").
"""

from __future__ import annotations

import math

from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.naming import GdpName
from repro.routing import GdpRouter, RoutingDomain
from repro.routing.dht import build_dht
from repro.server import DataCapsuleServer
from repro.sim import GBPS, SimNetwork


def run_depth(depth: int) -> dict:
    """Two branches of *depth* domains under one root; capsule at the
    bottom of branch A, reader at the bottom of branch B."""
    net = SimNetwork(seed=depth)
    clock = lambda: net.sim.now  # noqa: E731
    root = RoutingDomain("global", clock=clock)
    top = GdpRouter(net, "top", root)

    def build_branch(tag: str) -> GdpRouter:
        parent_domain, parent_router = root, top
        name = "global"
        for level in range(depth):
            name = f"{name}.{tag}{level}"
            domain = RoutingDomain(name, parent_domain)
            router = GdpRouter(net, f"{tag}{level}", domain)
            net.connect(router, parent_router, latency=0.005, bandwidth=GBPS)
            domain.attach_to_parent(router, parent_router)
            parent_domain, parent_router = domain, router
        return parent_router

    bottom_a = build_branch("a")
    bottom_b = build_branch("b")

    server = DataCapsuleServer(net, "server")
    server.attach(bottom_a, latency=0.001)
    writer_client = GdpClient(net, "writer")
    writer_client.attach(bottom_a, latency=0.001)
    reader = GdpClient(net, "reader")
    reader.attach(bottom_b, latency=0.001)
    console = OwnerConsole(writer_client, SigningKey.from_seed(b"a6-owner"))
    writer_key = SigningKey.from_seed(b"a6-writer")

    def scenario():
        for endpoint in (server, writer_client, reader):
            yield endpoint.advertise()
        metadata = console.design_capsule(writer_key.public)
        yield from console.place_capsule(metadata, [server.metadata])
        yield 0.5
        writer = writer_client.open_writer(metadata, writer_key)
        yield from writer.append(b"deep")
        def queries():
            return sum(
                d.glookup.metrics.counter("glookup.queries").value
                for d in _all_domains(root)
            )

        queries_before = queries()
        t0 = net.sim.now
        yield from reader.read(metadata.name, 1)
        cold = net.sim.now - t0
        queries_cold = queries() - queries_before
        t0 = net.sim.now
        yield from reader.read(metadata.name, 1)
        warm = net.sim.now - t0
        return {
            "depth": depth,
            "cold_ms": cold * 1000,
            "warm_ms": warm * 1000,
            "glookup_queries": queries_cold,
        }

    return net.sim.run_process(scenario())


def _all_domains(root: RoutingDomain):
    out = [root]
    stack = list(root.children.values())
    while stack:
        domain = stack.pop()
        out.append(domain)
        stack.extend(domain.children.values())
    return out


def test_a6a_hierarchy_depth(benchmark, report):
    depths = [1, 2, 4, 6]
    results = benchmark.pedantic(
        lambda: [run_depth(d) for d in depths], rounds=1, iterations=1
    )
    report.line(
        "Ablation A6a — cross-branch read vs hierarchy depth "
        "(capsule and reader in sibling branches of depth d)"
    )
    report.table(
        ["depth", "cold read (ms)", "warm read (ms)", "GLookup queries"],
        [
            [r["depth"], f"{r['cold_ms']:.1f}", f"{r['warm_ms']:.1f}",
             r["glookup_queries"]]
            for r in results
        ],
    )
    by_depth = {r["depth"]: r for r in results}
    # Cold cost grows with depth (the climb + descent)...
    assert by_depth[6]["cold_ms"] > by_depth[1]["cold_ms"]
    # ...roughly linearly, not worse.
    ratio = by_depth[6]["cold_ms"] / by_depth[1]["cold_ms"]
    assert ratio < 6 * 2.5
    # Warm reads ride the FIB: still latency-bound by the path, but with
    # no extra lookup work.
    for r in results:
        assert r["warm_ms"] <= r["cold_ms"] * 1.05


def test_a6b_dht_lookup_scaling(benchmark, report):
    sizes = [16, 64, 256]

    def sweep():
        rows = []
        for n in sizes:
            dht = build_dht(
                [GdpName.derive("a6.dht", i) for i in range(n)], k=8
            )
            key = GdpName.derive("a6.key", 1)
            dht.put(GdpName.derive("a6.dht", 0), key, "v")
            dht.stats.messages = 0
            probes = 12
            for i in range(probes):
                dht.get(GdpName.derive("a6.dht", (i * 7) % n), key)
            rows.append(
                {"nodes": n, "avg_messages": dht.stats.messages / probes}
            )
        return rows

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report.line(
        "Ablation A6b — DHT-backed global GLookup: lookup messages vs "
        "network size (k=8)"
    )
    report.table(
        ["nodes", "avg lookup messages"],
        [[r["nodes"], f"{r['avg_messages']:.1f}"] for r in results],
    )
    by_size = {r["nodes"]: r for r in results}
    # Sub-linear growth: 16x more nodes must not cost 16x more messages.
    growth = by_size[256]["avg_messages"] / by_size[16]["avg_messages"]
    assert growth < 6
    # And stays in the O(k log n) ballpark.
    assert by_size[256]["avg_messages"] < 8 * math.log2(256) * 2
