"""The paper's own evaluation (``repro bench --suite paper``).

Every figure and ablation that runs on the simulated clock, as one
byte-deterministic ``BENCH_paper.json``; EXPERIMENTS.md prints
:func:`table` of the committed document.  **Fig. 6** (§VIII): one
GDP-router's forwarding rate and throughput against PDU size, its two
capacity constants set from the paper (1/120k s service time, 1 Gbps
egress) — the test is that the whole path (advertisement, FIB, queueing,
delivery) sustains them.  **Fig. 8** (§IX): a 28 MB and a 115 MB model
written and read through the filesystem CAAPI on a cloud and on an edge
replica, beside the S3 and SSHFS baseline models, from a 100/10 Mbps
residential link; 5 seeded runs averaged, payloads scaled 1/4 (every
path is bandwidth/latency-bound, so the gated ratios do not depend on
the scale).  **A1** (§V) pointer strategies; **A3** (§VI-B) ack
policies; **A4** (§VII) anycast locality; **A5** (§V-A) anti-entropy
convergence; **A6a** (§VII) hierarchy depth.  The wall-clock experiments
live with the wall-clock suites: A2 is ``crypto``'s ``session``, A6b and
the trace overhead of the Fig. 6 loop are in ``routing``.

Every cell must *equal* the committed baseline
(:func:`~repro.bench.gate.exact`): one that moves, in either direction,
is a reviewed diff of ``BENCH_paper.json``.  The floors and ceilings are
the paper's shapes and hold for any regenerated baseline.  ``quick``
runs a subset of the cells with identical parameters and seeds, so the
one baseline gates both.
"""

from __future__ import annotations

from statistics import fmean

from repro.baselines import ObjectStoreClient, ObjectStoreServer
from repro.baselines import SshfsClient, SshfsServer
from repro.bench.crypto import _build_capsule
from repro.bench.gate import exact
from repro.bench.replication import _two_site_net
from repro.caapi import CapsuleFileSystem
from repro.capsule import build_position_proof, build_range_proof
from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.errors import GdpError
from repro.routing import GdpRouter, RoutingDomain
from repro.routing.pdu import T_DATA, Pdu
from repro.server import AntiEntropyDaemon, DataCapsuleServer
from repro.sim import GBPS, MODEL_LARGE, MODEL_SMALL, SimNetwork, blob
from repro.sim import federated_campus, residential_edge_cloud, single_router

__all__ = ["run", "GATES", "table", "forwarding_star"]

#: the paper's shapes, as docs/PERFORMANCE.md annotates them row by row.
#: No gated cell is ever 0 or false (a count kept, not a count lost): the
#: gate tests prove each row bites by scaling its cell.
GATES = (
    exact("fig6.points.*.pdus_per_s", key="pdu_size"),
    exact("fig6.points.*.gbps", key="pdu_size"),
    exact("fig6.small_pdu_pdus_per_s", floor=100_000),
    exact("fig6.large_pdu_gbps", floor=0.85, ceiling=1.15),
    exact("fig6.large_pdu_pdus_per_s", ceiling=15_000),
    exact("fig6.throughput_monotone", floor=1,
          why="throughput fell as PDUs grew"),
    exact("fig8.times.*.write_s", key="cell"),
    exact("fig8.times.*.read_s", key="cell"),
    exact("fig8.shape.*.edge_write_speedup", floor=5.0),
    exact("fig8.shape.*.edge_read_speedup", floor=5.0),
    exact("fig8.shape.*.edge_write_speedup_vs_s3", floor=5.0),
    exact("fig8.shape.*.cloud_write_vs_s3", floor=0.4, ceiling=2.0),
    exact("fig8.shape.*.cloud_read_vs_s3", ceiling=2.0),
    exact("a1.strategies.*.ptrs_per_append", key="strategy"),
    exact("a1.strategies.*.proof_hops", key="strategy"),
    exact("a1.strategies.*.avg_proof_bytes", key="strategy"),
    exact("a1.strategies.*.range_proof_bytes", key="strategy"),
    exact("a1.shape.chain_ptrs_per_append", floor=1.0, ceiling=1.0),
    exact("a1.shape.chain_proof_hops_per_record", floor=1.0),
    exact("a1.shape.skiplist_ptrs_per_append", ceiling=3.0),
    exact("a1.shape.skiplist_proof_hops", ceiling=20),
    exact("a1.shape.checkpoint_proof_hops", ceiling=50),
    exact("a1.shape.chain_vs_skiplist_proof_bytes", floor=10.0),
    exact("a1.shape.chain_range_proof_vs_best", ceiling=1.1),
    exact("a3.policies.*.append_ms", key="policy"),
    exact("a3.policies.*.acked", key="policy"),
    exact("a3.policies.*.kept", key="policy"),
    exact("a3.shape.quorum_vs_any", floor=1.01),
    exact("a3.shape.all_vs_quorum", floor=0.99),
    exact("a3.shape.all_vs_any", floor=3.0),
    exact("a3.shape.any_acked_then_lost", floor=1),
    exact("a3.shape.all_lost_nothing", floor=1,
          why="`all` acknowledged a record the survivor does not hold"),
    exact("a4.placements.*.mean_ms", key="placement"),
    exact("a4.placements.*.warm_ms", key="placement"),
    exact("a4.remote_only_uplink_pdus", floor=1),
    exact("a4.local_stays_in_domain", floor=1,
          why="a read with a domain-local replica crossed the uplink"),
    exact("a4.locality_speedup", floor=2.0),
    exact("a5.cells.*.converge_s", key="cell"),
    exact("a5.cells.*.records_fetched", key="cell"),
    exact("a5.cells.*.converge_vs_bound", key="cell", ceiling=1.0),
    exact("a5.period_scaling", floor=1.01),
    exact("a6a.depths.*.cold_ms", key="depth"),
    exact("a6a.depths.*.warm_ms", key="depth"),
    exact("a6a.depths.*.glookup_queries", key="depth"),
    exact("a6a.depths.*.cold_vs_linear", key="depth", floor=0.5, ceiling=2.5),
    exact("a6a.depths.*.warm_vs_cold", key="depth", ceiling=1.05),
)

FIG6_SIZES = (64, 256, 1024, 4096, 10240, 16384)
FIG6_PAIRS = 16  # the paper: 32; scaled for wall time
FIG6_PDUS_PER_PAIR = 120
FIG8_RUNS = 5  # "averaged over 5 runs"
FIG8_SCALE = 4
FIG8_CHUNK = 4 * 1024 * 1024
FIG8_MODELS = {"28MB": MODEL_SMALL, "115MB": MODEL_LARGE}  # quick: the first
#: (table label, key) in the paper's column order
FIG8_SYSTEMS = (
    ("S3 (cloud)", "s3"), ("SSHFS (cloud)", "sshfs_cloud"),
    ("GDP (cloud)", "gdp_cloud"), ("SSHFS (edge)", "sshfs_edge"),
    ("GDP (edge)", "gdp_edge"),
)
A1_STRATEGIES = ("chain", "skiplist", "checkpoint:32", "stream:4")
A1_RECORDS = 512
A1_PROBES = (1, 64, 256, 500)
A3_APPENDS = 8
A4_READS = 6
A5_PARTITIONED_APPENDS = 6
A5_GRID = ((3, 1.0), (3, 4.0), (5, 1.0), (5, 4.0))  # quick: 3 replicas
A6A_DEPTHS = (1, 2, 4, 6)  # quick: the first two


def _attached(cls, net, name: str, router, **link):
    """A *cls* endpoint called *name*, linked to *router*."""
    endpoint = cls(net, name)
    endpoint.attach(router, **link)
    return endpoint


def _placed_writer(endpoints, replicas, console, tag: bytes):
    """The scenario prefix A3-A6a share: advertise *endpoints*, place one
    capsule on *replicas*, settle.  Runs inside the caller's scenario
    (``yield from``) and returns ``(metadata, writer)``."""
    writer_key = SigningKey.from_seed(tag + b"-writer")
    for endpoint in endpoints:
        yield endpoint.advertise()
    metadata = console.design_capsule(writer_key.public)
    yield from console.place_capsule(metadata, [r.metadata for r in replicas])
    yield 0.5
    return metadata, console.client.open_writer(metadata, writer_key)


def forwarding_star(
    payload_size: int, *, pairs: int, pdus_per_pair: int, seed: int,
    configure=None,
):
    """The Fig. 6 testbed: *pairs* senders each blast *pdus_per_pair*
    PDUs of *payload_size* bytes at their receiver through one router,
    over fat, short access links (the router is the bottleneck).
    ``configure(net)`` runs before any endpoint exists.  Returns
    ``drive``: calling it runs until the last PDU is *delivered* (the
    egress queue, not just the forwarding engine, must clear) and
    returns the simulated seconds that took."""
    topo = single_router(seed=seed)
    if configure is not None:
        configure(topo.net)
    router = topo.router("r0")
    router.egress_bandwidth = GBPS  # the paper router's ~1 Gbps NIC
    received = [0]

    def sink(pdu):
        received[0] += 1  # and no response traffic

    def client(name: str) -> GdpClient:
        endpoint = GdpClient(topo.net, name)
        endpoint.attach(router, latency=0.0001, bandwidth=10 * GBPS)
        return endpoint

    clients = [client(f"{side}{i}") for i in range(pairs) for side in ("tx", "rx")]
    senders, receivers = clients[::2], clients[1::2]
    for receiver in receivers:
        receiver.on_request = sink

    def scenario():
        for endpoint in senders + receivers:
            yield endpoint.advertise()
        start = topo.net.sim.now
        payload = b"\x00" * payload_size
        for sender, receiver in zip(senders, receivers):
            for _ in range(pdus_per_pair):
                sender.send_pdu(Pdu(sender.name, receiver.name, T_DATA, payload))
        while received[0] < pairs * pdus_per_pair:
            yield 0.001
        return topo.net.sim.now - start

    return lambda: topo.net.sim.run_process(scenario())


def _fig6() -> dict:
    delivered = FIG6_PAIRS * FIG6_PDUS_PER_PAIR
    points = {}
    for size in FIG6_SIZES:
        seconds = forwarding_star(
            size, pairs=FIG6_PAIRS, pdus_per_pair=FIG6_PDUS_PER_PAIR, seed=size
        )()
        points[size] = {
            "pdu_size": size,
            "pdus_per_s": round(delivered / seconds, 1),
            # 80 B of PDU header ride with every payload
            "gbps": round(delivered * (size + 80) * 8 / seconds / 1e9, 4),
        }
    gbps = [point["gbps"] for point in points.values()]
    return {
        "pairs": FIG6_PAIRS,
        "pdus_per_pair": FIG6_PDUS_PER_PAIR,
        "points": list(points.values()),
        "small_pdu_pdus_per_s": min(points[s]["pdus_per_s"] for s in (64, 256)),
        "large_pdu_gbps": min(points[s]["gbps"] for s in (10240, 16384)),
        "large_pdu_pdus_per_s": points[16384]["pdus_per_s"],
        "throughput_monotone": all(
            after >= before * 0.99 for before, after in zip(gbps, gbps[1:])
        ),
    }


def _case_study(model_size: int, seed: int) -> dict:
    """One run of the Fig. 8 columns for one model size: simulated
    seconds per ``<system>_<write|read>``."""
    topo = residential_edge_cloud(seed=seed)
    net, cloud, home = topo.net, topo.router("r_cloud"), topo.router("r_home")
    servers = {
        system: _attached(cls, net, system, router)
        for system, cls, router in (
            ("gdp_cloud", DataCapsuleServer, cloud),
            ("gdp_edge", DataCapsuleServer, home),
            ("s3", ObjectStoreServer, cloud),
            ("sshfs_cloud", SshfsServer, cloud),
            ("sshfs_edge", SshfsServer, home),
        )
    }
    client = _attached(GdpClient, net, "robot", home)
    console = OwnerConsole(client, SigningKey.from_seed(b"fig8-owner"))
    model = blob(model_size, seed=seed)
    times: dict[str, float] = {}

    def scenario():
        for endpoint in (*servers.values(), client):
            yield endpoint.advertise()
        for system, server in servers.items():
            if isinstance(server, DataCapsuleServer):
                fs = CapsuleFileSystem(
                    client, console, [server.metadata], chunk_size=FIG8_CHUNK
                )
                yield from fs.format()
                write, read = fs.write_file("m.pb", model), fs.read_file("m.pb")
            elif isinstance(server, ObjectStoreServer):
                store = ObjectStoreClient(client, server.name)
                write, read = store.put("m.pb", model), store.get("m.pb")
            else:
                fs = SshfsClient(client, server.name)
                write, read = fs.write_file("/m.pb", model), fs.read_file("/m.pb")
            for op, transfer in (("write", write), ("read", read)):
                t0 = net.sim.now  # a generator runs nothing until driven
                data = yield from transfer
                times[f"{system}_{op}"] = net.sim.now - t0
            if data != model:
                raise RuntimeError(f"fig8: {system} read back different bytes")

    net.sim.run_process(scenario())
    return times


def _fig8(models, note) -> dict:
    times, shape = [], {}
    for label in models:
        note(f"fig 8: {label} model, {FIG8_RUNS} runs")
        runs = [
            _case_study(FIG8_MODELS[label] // FIG8_SCALE, seed)
            for seed in range(FIG8_RUNS)
        ]
        mean = {key: fmean(run[key] for run in runs) for key in runs[0]}
        times += [
            {
                "cell": f"{label}/{system}",
                "write_s": round(mean[f"{system}_write"], 4),
                "read_s": round(mean[f"{system}_read"], 4),
            }
            for _, system in FIG8_SYSTEMS
        ]

        def ratio(over: str, under: str, digits: int) -> float:
            return round(mean[over] / mean[under], digits)

        shape[label] = {
            "edge_write_speedup": ratio("gdp_cloud_write", "gdp_edge_write", 2),
            "edge_read_speedup": ratio("gdp_cloud_read", "gdp_edge_read", 2),
            "edge_write_speedup_vs_s3": ratio("s3_write", "gdp_edge_write", 2),
            "cloud_write_vs_s3": ratio("gdp_cloud_write", "s3_write", 3),
            "cloud_read_vs_s3": ratio("gdp_cloud_read", "s3_read", 3),
        }
    return {
        "runs": FIG8_RUNS, "payload_scale": FIG8_SCALE,
        "chunk_bytes": FIG8_CHUNK, "times": times, "shape": shape,
    }


def _a1() -> dict:
    cells = {}
    for strategy in A1_STRATEGIES:
        capsule, _ = _build_capsule(A1_RECORDS, strategy)
        proofs = [build_position_proof(capsule, seqno) for seqno in A1_PROBES]
        # A tail read up to the reader's frontier: the range proof
        # anchors at the heartbeat of the range's newest record.
        anchor = next(hb for hb in capsule.heartbeats() if hb.seqno == 199)
        tail = build_range_proof(capsule, 100, 199, against=anchor)
        cells[strategy] = {
            "strategy": strategy,
            "ptrs_per_append": round(
                fmean(len(record.pointers) for record in capsule.records()), 2),
            "proof_hops": len(proofs[0].headers),
            "avg_proof_bytes": round(fmean(p.size_bytes() for p in proofs)),
            "range_proof_bytes": tail.size_bytes(),
        }
    chain, skiplist = cells["chain"], cells["skiplist"]
    best_other_range = min(
        cells[s]["range_proof_bytes"] for s in A1_STRATEGIES if s != "chain"
    )
    return {
        "records": A1_RECORDS,
        "probes": list(A1_PROBES),
        "strategies": list(cells.values()),
        "shape": {
            "chain_ptrs_per_append": chain["ptrs_per_append"],
            "chain_proof_hops_per_record": chain["proof_hops"] / A1_RECORDS,
            "skiplist_ptrs_per_append": skiplist["ptrs_per_append"],
            "skiplist_proof_hops": skiplist["proof_hops"],
            "checkpoint_proof_hops": cells["checkpoint:32"]["proof_hops"],
            "chain_vs_skiplist_proof_bytes": round(
                chain["avg_proof_bytes"] / skiplist["avg_proof_bytes"], 2),
            "chain_range_proof_vs_best": round(
                chain["range_proof_bytes"] / best_other_range, 3),
        },
    }


def _a3_world(seed: int):
    """Three replicas: one edge-local, two across a 20-30 ms WAN."""
    net = SimNetwork(seed=seed)
    root = RoutingDomain("global", clock=lambda: net.sim.now)
    edge = RoutingDomain("global.edge", root)
    r_root = GdpRouter(net, "r_root", root)
    r_far = GdpRouter(net, "r_far", root)
    r_edge = GdpRouter(net, "r_edge", edge)
    uplink = net.connect(r_edge, r_root, latency=0.030, bandwidth=GBPS)
    net.connect(r_far, r_root, latency=0.020, bandwidth=GBPS)
    edge.attach_to_parent(r_edge, r_root)
    servers = [
        _attached(DataCapsuleServer, net, name, router, latency=0.001)
        for name, router in (("s_edge", r_edge), ("s_mid", r_root), ("s_far", r_far))
    ]
    client = _attached(GdpClient, net, "writer_client", r_edge, latency=0.001)
    console = OwnerConsole(client, SigningKey.from_seed(b"a3-owner"))
    return net, servers, [*servers, client], console, uplink


def _a3_policy(policy: str) -> dict:
    """Under ack *policy*: the mean latency of ``A3_APPENDS`` appends,
    then the §VI-B hole window — four more attempted while the edge is
    cut off, the fronting replica crashing before the partition heals.
    ``acked`` counts every acknowledged append, ``kept`` those the
    surviving replica holds."""
    net, servers, endpoints, console, uplink = _a3_world(seed=0)

    def scenario():
        metadata, writer = yield from _placed_writer(
            endpoints, servers, console, b"a3"
        )
        samples = []
        for i in range(A3_APPENDS):
            t0 = net.sim.now
            yield from writer.append(b"r%d" % i, acks=policy)
            samples.append((net.sim.now - t0) * 1000)
        yield 1.0
        uplink.fail()  # propagation beyond the edge now fails
        acked = A3_APPENDS
        for i in range(4):
            try:
                yield from writer.append(b"risky-%d" % i, acks=policy)
                acked += 1
            except GdpError:
                pass
        yield 0.5
        servers[0].crash()  # the only replica holding the suffix dies
        uplink.recover()
        survivor = servers[1].hosted[metadata.name].capsule
        return {
            "policy": policy, "append_ms": fmean(samples),
            "acked": acked, "kept": min(acked, survivor.last_seqno),
        }

    return net.sim.run_process(scenario())


def _a3() -> dict:
    cells = {policy: _a3_policy(policy) for policy in ("any", "quorum", "all")}
    ms = {policy: cell["append_ms"] for policy, cell in cells.items()}
    any_, all_ = cells["any"], cells["all"]
    return {
        "appends": A3_APPENDS,
        "policies": [
            {**cell, "append_ms": round(cell["append_ms"], 3)}
            for cell in cells.values()
        ],
        "shape": {
            "quorum_vs_any": round(ms["quorum"] / ms["any"], 3),
            "all_vs_quorum": round(ms["all"] / ms["quorum"], 3),
            "all_vs_any": round(ms["all"] / ms["any"], 3),
            "any_acked_then_lost": any_["acked"] - any_["kept"],
            "all_lost_nothing": all_["acked"] == all_["kept"],
        },
    }


def _a4_reads(local_replica: bool) -> tuple[dict, int]:
    """Reader in site0 of a three-site campus; the capsule lives in
    site2 and, with *local_replica*, in site0 as well.  Returns the
    placement's cell and the PDUs its reads sent up site0's uplink."""
    topo = federated_campus(n_domains=3, seed=3)
    net = topo.net
    srv_local, srv_remote, reader, writer_client = (
        _attached(cls, net, name, topo.router(router), latency=0.001)
        for cls, name, router in (
            (DataCapsuleServer, "srv_local", "site0_r1"),
            (DataCapsuleServer, "srv_remote", "site2_r1"),
            (GdpClient, "reader", "site0_r0"),
            (GdpClient, "writer", "site2_r0"),
        )
    )
    console = OwnerConsole(writer_client, SigningKey.from_seed(b"a4-owner"))
    uplink = topo.router("site0_r0").link_to(topo.router("bb0"))
    crossings = uplink.metrics.counter("net.sent")

    def scenario():
        metadata, writer = yield from _placed_writer(
            (srv_local, srv_remote, reader, writer_client),
            [srv_local, srv_remote] if local_replica else [srv_remote],
            console, b"a4",
        )
        for i in range(3):
            yield from writer.append(b"record-%d" % i)
        yield 1.0  # replication settles
        before = crossings.value
        samples = []
        for i in range(A4_READS):
            t0 = net.sim.now
            yield from reader.read(metadata.name, i % 3 + 1)
            samples.append((net.sim.now - t0) * 1000)
        return {
            "placement": "local" if local_replica else "remote_only",
            "mean_ms": round(fmean(samples), 3),
            "warm_ms": round(fmean(samples[1:]), 3),
        }, crossings.value - before

    return net.sim.run_process(scenario())


def _a4() -> dict:
    local, local_crossings = _a4_reads(True)
    remote, remote_crossings = _a4_reads(False)
    return {
        "reads": A4_READS,
        "placements": [local, remote],
        "local_stays_in_domain": local_crossings == 0,
        "remote_only_uplink_pdus": remote_crossings,
        "locality_speedup": round(remote["mean_ms"] / local["mean_ms"], 2),
    }


def _a5_cell(n_replicas: int, interval: float) -> dict:
    """*n_replicas* around a hub; a partition isolates the writer's
    replica while it accepts appends; after the heal one anti-entropy
    daemon per server (period *interval*) repairs everyone."""
    net, hub, writer_router = _two_site_net(
        seed=n_replicas * 100 + int(interval * 10), latency=0.01, bandwidth=GBPS
    )
    uplink = writer_router.link_to(hub)
    routers = [writer_router]
    for i in range(1, n_replicas):
        routers.append(GdpRouter(net, f"spoke{i}", hub.domain))
        net.connect(routers[i], hub, latency=0.005 + 0.002 * i, bandwidth=GBPS)
    servers = [
        _attached(DataCapsuleServer, net, f"s{i}", router, latency=0.001)
        for i, router in enumerate(routers)
    ]
    daemons = [AntiEntropyDaemon(server, interval=interval) for server in servers]
    client = _attached(GdpClient, net, "writer_client", writer_router, latency=0.001)
    console = OwnerConsole(client, SigningKey.from_seed(b"a5-owner"))
    target = 1 + A5_PARTITIONED_APPENDS

    def scenario():
        metadata, writer = yield from _placed_writer(
            [*servers, client], servers, console, b"a5"
        )
        for daemon in daemons:
            daemon.start()
        yield from writer.append(b"pre-partition")
        yield 1.0
        uplink.fail()
        for i in range(A5_PARTITIONED_APPENDS):
            yield from writer.append(b"partitioned-%d" % i)
        yield 0.5
        uplink.recover()
        for router in (hub, writer_router):
            router.flush_fib()
        healed = net.sim.now

        def converged():
            capsules = [s.hosted[metadata.name].capsule for s in servers]
            return all(c.last_seqno == target and not c.holes() for c in capsules)

        while not converged():
            if net.sim.now - healed > 120 * interval + 60:
                raise RuntimeError(f"A5: {n_replicas} replicas never converged")
            yield interval / 4
        for daemon in daemons:
            daemon.stop()
        seconds = net.sim.now - healed
        return {
            "cell": f"{n_replicas}@{interval:g}s",
            "replicas": n_replicas,
            "period_s": interval,
            "converge_s": round(seconds, 3),
            "converge_vs_bound": round(seconds / (8 * interval + 2), 3),
            "records_fetched": sum(
                s.metrics.counter("server.sync.fetched").value for s in servers
            ),
        }

    return net.sim.run_process(scenario())


def _a6a_depth(depth: int, depth1_cold_ms: float | None) -> dict:
    """Two branches of *depth* nested domains under one root; the
    capsule at the bottom of one, the reader at the bottom of the
    other."""
    net = SimNetwork(seed=depth)
    root = RoutingDomain("global", clock=lambda: net.sim.now)
    top = GdpRouter(net, "top", root)
    domains = [root]

    def branch(tag: str) -> GdpRouter:
        domain, router = root, top
        for level in range(depth):
            child = RoutingDomain(f"{domain.name}.{tag}{level}", domain)
            below = GdpRouter(net, f"{tag}{level}", child)
            net.connect(below, router, latency=0.005, bandwidth=GBPS)
            child.attach_to_parent(below, router)
            domains.append(child)
            domain, router = child, below
        return router

    bottom_a, bottom_b = branch("a"), branch("b")
    server = _attached(DataCapsuleServer, net, "server", bottom_a, latency=0.001)
    writer_client = _attached(GdpClient, net, "writer", bottom_a, latency=0.001)
    reader = _attached(GdpClient, net, "reader", bottom_b, latency=0.001)
    console = OwnerConsole(writer_client, SigningKey.from_seed(b"a6-owner"))

    def queries() -> int:
        return sum(
            domain.glookup.metrics.counter("glookup.queries").value
            for domain in domains
        )

    def timed_read(name):
        t0 = net.sim.now
        yield from reader.read(name, 1)
        return (net.sim.now - t0) * 1000

    def scenario():
        metadata, writer = yield from _placed_writer(
            (server, writer_client, reader), [server], console, b"a6"
        )
        yield from writer.append(b"deep")
        before = queries()
        cold = yield from timed_read(metadata.name)
        asked = queries() - before
        warm = yield from timed_read(metadata.name)
        return {
            "depth": depth,
            "cold_ms": round(cold, 3),
            "warm_ms": round(warm, 3),
            "glookup_queries": asked,
            "cold_vs_linear": round(cold / (depth * (depth1_cold_ms or cold)), 3),
            "warm_vs_cold": round(warm / cold, 3),
        }

    return net.sim.run_process(scenario())


def run(quick: bool = False, note=lambda message: None) -> dict:
    """Run every experiment; returns the BENCH_paper.json document.
    Deterministic: simulated time and structure counts only, so the
    document is identical on every machine, and a ``quick`` cell is
    byte-identical to the same cell of a full run."""
    doc = {"schema": "gdp-bench-paper/1", "quick": quick}
    note(f"fig 6: {len(FIG6_SIZES)} PDU sizes")
    doc["fig6"] = _fig6()
    doc["fig8"] = _fig8(list(FIG8_MODELS)[:1] if quick else FIG8_MODELS, note)
    note(f"A1: {len(A1_STRATEGIES)} pointer strategies x {A1_RECORDS} records")
    doc["a1"] = _a1()
    note("A3: ack policies")
    doc["a3"] = _a3()
    note("A4: anycast locality")
    doc["a4"] = _a4()
    note("A5: anti-entropy convergence")
    cells = [_a5_cell(n, t) for n, t in A5_GRID if n == 3 or not quick]
    doc["a5"] = {
        "partitioned_appends": A5_PARTITIONED_APPENDS,
        "cells": cells,
        # the two 3-replica cells: 4 s period against 1 s
        "period_scaling": round(cells[1]["converge_s"] / cells[0]["converge_s"], 3),
    }
    note("A6a: hierarchy depth")
    cells = []
    for depth in A6A_DEPTHS[:2] if quick else A6A_DEPTHS:
        cells.append(_a6a_depth(depth, cells[0]["cold_ms"] if cells else None))
    doc["a6a"] = {"depths": cells}
    return doc


def table(doc: dict) -> list:
    """One table per figure / ablation, in EXPERIMENTS.md's order and
    wording (a docs test holds the two equal)."""
    fig6, fig8, a1, a3, a4, a5 = (
        doc[name] for name in ("fig6", "fig8", "a1", "a3", "a4", "a5")
    )
    sections = [
        f"Fig. 6: 1 router, {fig6['pairs']} sender/receiver pairs x "
        f"{fig6['pdus_per_pair']} PDUs",
        (
            ("PDU size (B)", "rate (kPDU/s)", "throughput (Gbps)"),
            [(p["pdu_size"], f"{p['pdus_per_s'] / 1e3:.1f}", f"{p['gbps']:.3f}")
             for p in fig6["points"]],
        ),
    ]
    times = {cell["cell"]: cell for cell in fig8["times"]}
    for model in (m for m in FIG8_MODELS if m in fig8["shape"]):
        shape = fig8["shape"][model]
        sections += [
            f"Fig. 8: {model} model, mean of {fig8['runs']} runs, payloads "
            f"scaled 1/{fig8['payload_scale']}; GDP edge vs cloud: write "
            f"{shape['edge_write_speedup']:.1f}x, read "
            f"{shape['edge_read_speedup']:.1f}x",
            (
                (f"{model} model", "write (s)", "read (s)"),
                [(label, f"{times[f'{model}/{system}']['write_s']:.2f}",
                  f"{times[f'{model}/{system}']['read_s']:.2f}")
                 for label, system in FIG8_SYSTEMS],
            ),
        ]
    local, remote = a4["placements"]
    sections += [
        f"A1: pointer strategies over {a1['records']} records, point proofs "
        f"at seqnos {a1['probes']}",
        (
            ("strategy", "ptrs/append", "proof hops (rec 1)", "avg proof (B)",
             "range(100) proof (B)"),
            [(s["strategy"], f"{s['ptrs_per_append']:.2f}", s["proof_hops"],
              s["avg_proof_bytes"], s["range_proof_bytes"])
             for s in a1["strategies"]],
        ),
        f"A3: 3 replicas; mean latency of {a3['appends']} appends, then 4 more "
        "attempted during a partition that ends with the fronting replica "
        "crashing",
        (
            ("ack policy", "append (ms)", "acked", "acked then lost"),
            [(c["policy"], f"{c['append_ms']:.1f}", c["acked"],
              c["acked"] - c["kept"]) for c in a3["policies"]],
        ),
        f"A4: {a4['reads']} reads from site0; a local replica is "
        f"{a4['locality_speedup']:.1f}x faster",
        (
            ("placement", "mean read (ms)", "warm read (ms)", "uplink PDUs"),
            [("local + remote replica", f"{local['mean_ms']:.1f}",
              f"{local['warm_ms']:.1f}", 0 if a4["local_stays_in_domain"] else ">0"),
             ("remote replica only", f"{remote['mean_ms']:.1f}",
              f"{remote['warm_ms']:.1f}", a4["remote_only_uplink_pdus"])],
        ),
        f"A5: convergence after a healed partition, {a5['partitioned_appends']} "
        "records to repair",
        (
            ("replicas", "sync period (s)", "converge (s)", "records gossiped"),
            [(c["replicas"], f"{c['period_s']:.1f}", f"{c['converge_s']:.1f}",
              c["records_fetched"]) for c in a5["cells"]],
        ),
        "A6a: cross-branch read vs hierarchy depth",
        (
            ("depth", "cold read (ms)", "warm read (ms)", "GLookup queries"),
            [(c["depth"], f"{c['cold_ms']:.1f}", f"{c['warm_ms']:.1f}",
              c["glookup_queries"]) for c in doc["a6a"]["depths"]],
        ),
    ]
    spaced = []
    for section in sections:  # a blank line before each caption
        spaced += ["", section] if spaced and isinstance(section, str) else [section]
    return spaced
