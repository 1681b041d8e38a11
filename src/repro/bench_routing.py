"""Routing-fabric benchmark: the engine behind
``repro bench --suite routing``.

The paper's scaling claim (§VII) — a flat 256-bit namespace resolved
through hierarchical GLookup over untrusted key-value state — turns
into four measured scenarios:

**Packed tables** (gated).  Fill :class:`~repro.routing.fib.CompactFib`
and the packed :class:`~repro.routing.glookup.GLookupService` at
10k -> 100k -> 1M names (``--quick``: 10k only), reporting tracemalloc
bytes-per-entry and warm get/lookup latency percentiles.  The gate
requires FIB memory <= 200 bytes/entry and warm resolution p99 <= 1 ms
at the largest level.

**Cold resolution.**  Real signed delegation chains registered in a
child domain, resolved through the hierarchy with full evidence
re-verification — the price of the first packet to a name, dominated by
ECDSA.

**Forwarding.**  A small federated sim world pushing reads end to end;
reported as simulated data-PDU forwards per wall-clock second (whole
stack: packed FIB hit + pipeline + delivery).

**DHT tier** (gated).  Kademlia rings of 32/64/128 nodes serving
sampled put/get traffic; per-query iterative rounds must stay within
the O(log n) bound (ceil(log2 n) + 2).

**DHT churn** (gated).  Store keys in a 64-node ring, crash up to k-1
of each key's replica holders, and resolve through a surviving access
point: every get must still return the value.

**Purge scaling** (gated).  Lease-wheel reclamation with 1% of names
live: the per-expired-entry cost at the largest level must be within
5x of the 10k-name cost — O(expired), not O(table).

Wall-clock numbers are machine-dependent; the CI gate enforces the
absolute memory/hop/purge bounds plus a 30% regression band on
bytes-per-entry and warm p99 against levels present in the committed
baseline.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import tracemalloc

__all__ = ["run_bench", "check_regression", "GATED_LIMITS"]

#: absolute ceilings the CI gate enforces (ISSUE acceptance criteria)
GATED_LIMITS = {
    "fib_bytes_per_entry": 200.0,
    "warm_resolution_p99_ms": 1.0,
    "purge_cost_ratio": 5.0,
}

_REGRESSION_TOLERANCE = 0.30
#: latency regressions below this are scheduler/timer noise, not an
#: algorithmic change — the absolute 1 ms ceiling still applies.  A
#: packed-table lookup is tens of microseconds; a 30% band at that
#: scale would flap on every CI runner.
_LATENCY_NOISE_FLOOR_MS = 0.25

LEVELS = (10_000, 100_000, 1_000_000)
LEVELS_QUICK = (10_000,)
WARM_SAMPLES = 10_000
COLD_SAMPLES = 64
DHT_RINGS = (32, 64, 128)
DHT_RINGS_QUICK = (32,)
DHT_OPS_PER_RING = 64
DHT_CHURN_NODES = 64
DHT_CHURN_KEYS = 32
FORWARD_READS = 1_500
FORWARD_READS_QUICK = 200
#: fraction of names whose lease is still live in the purge scenario
PURGE_LIVE_FRACTION = 0.01


def _name_raw(i: int) -> bytes:
    return hashlib.sha256(b"bench-routing:%d" % i).digest()


def _percentiles(samples_ms: list[float]) -> dict:
    samples_ms.sort()
    n = len(samples_ms)
    return {
        "samples": n,
        "p50_ms": round(samples_ms[n // 2], 6),
        "p99_ms": round(samples_ms[min(n - 1, int(n * 0.99))], 6),
        "max_ms": round(samples_ms[-1], 6),
    }


def _shared_evidence():
    """One server identity whose metadata/RtCert all synthetic entries
    share — the interning pool stores it once, which is exactly the
    per-entry memory shape a real 1M-name domain has."""
    from repro.crypto.keys import SigningKey
    from repro.naming.metadata import make_server_metadata

    server = SigningKey.from_seed(b"bench-routing-server")
    server_md = make_server_metadata(server, server.public)
    return server_md


def _synthetic_entry(name_raw: bytes, server_md, expires_at=None):
    from repro.naming.names import GdpName
    from repro.routing.glookup import RouteEntry

    return RouteEntry(
        GdpName(name_raw),
        router=server_md.name,
        principal=server_md.name,
        principal_metadata=server_md,
        rtcert=None,
        chain=None,
        router_metadata=None,
        expires_at=expires_at,
    )


def _bench_fib_level(n: int) -> dict:
    """CompactFib at *n* names: fill rate, resident bytes/entry
    (tracemalloc delta over the fill), warm-hit latency."""
    import random

    from repro.naming.names import GdpName
    from repro.routing.fib import CompactFib

    names = [GdpName(_name_raw(i)) for i in range(n)]
    hop = object()
    clock = {"now": 0.0}
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    t0 = time.perf_counter()
    fib = CompactFib(clock=lambda: clock["now"])
    for name in names:
        fib[name] = (hop, 1e18)
    fib._map.compact()
    fill_seconds = time.perf_counter() - t0
    resident = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()

    rng = random.Random(20260807)
    probes = [names[rng.randrange(n)] for _ in range(WARM_SAMPLES)]
    get = fib.get
    latencies = []
    for name in probes:
        t0 = time.perf_counter()
        get(name)
        latencies.append((time.perf_counter() - t0) * 1000.0)
    return {
        "names": n,
        "fill_seconds": round(fill_seconds, 3),
        "fills_per_sec": round(n / fill_seconds, 1),
        "bytes_per_entry": round(resident / n, 1),
        "warm_get": _percentiles(latencies),
    }


def _bench_glookup_level(n: int, server_md) -> dict:
    """Packed GLookupService at *n* names (shared evidence, verification
    off — the registration crypto is the crypto suite's business):
    bytes/entry and warm lookup latency through RouteEntry rebuild."""
    import random

    from repro.naming.names import GdpName
    from repro.routing.glookup import GLookupService

    entries = [
        _synthetic_entry(_name_raw(i), server_md) for i in range(n)
    ]
    clock = {"now": 0.0}
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    t0 = time.perf_counter()
    service = GLookupService(
        "bench", verify_on_register=False, clock=lambda: clock["now"]
    )
    for entry in entries:
        service.register(entry)
    service._map.compact()
    fill_seconds = time.perf_counter() - t0
    resident = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()

    rng = random.Random(20260807)
    probes = [
        GdpName(_name_raw(rng.randrange(n))) for _ in range(WARM_SAMPLES)
    ]
    lookup = service.lookup
    latencies = []
    for name in probes:
        t0 = time.perf_counter()
        found = lookup(name)
        latencies.append((time.perf_counter() - t0) * 1000.0)
        if not found:
            raise RuntimeError("warm lookup missed a registered name")
    return {
        "names": n,
        "fill_seconds": round(fill_seconds, 3),
        "registers_per_sec": round(n / fill_seconds, 1),
        "bytes_per_entry": round(resident / n, 1),
        "evidence_records": len(service._pool),
        "warm_lookup": _percentiles(latencies),
    }


def _bench_cold_resolution() -> dict:
    """Full-evidence resolution: a local miss escalating to the parent
    tier, then chain verification before install (what a router pays on
    the first packet to a name)."""
    from repro.crypto.keys import SigningKey
    from repro.delegation.certs import AdCert, RtCert
    from repro.delegation.chain import ServiceChain
    from repro.naming.metadata import (
        make_capsule_metadata,
        make_router_metadata,
        make_server_metadata,
    )
    from repro.routing.glookup import GLookupService, RouteEntry

    owner = SigningKey.from_seed(b"bench-cold-owner")
    writer = SigningKey.from_seed(b"bench-cold-writer")
    server = SigningKey.from_seed(b"bench-cold-server")
    router = SigningKey.from_seed(b"bench-cold-router")
    server_md = make_server_metadata(server, server.public)
    router_md = make_router_metadata(router, router.public)
    rtcert = RtCert.issue(server, server_md.name, router_md.name)

    root = GLookupService("global")
    site = GLookupService("global.site", root)
    leaf = GLookupService("global.site.rack", site)
    names = []
    for i in range(COLD_SAMPLES):
        capsule_md = make_capsule_metadata(
            owner, writer.public, extra={"bench": i}
        )
        adcert = AdCert.issue(owner, capsule_md.name, server_md.name)
        chain = ServiceChain(capsule_md, adcert, server_md)
        entry = RouteEntry(
            capsule_md.name,
            router=router_md.name,
            principal=server_md.name,
            principal_metadata=server_md,
            rtcert=rtcert,
            chain=chain,
            router_metadata=router_md,
        )
        site.register(entry, propagate=True)
        names.append(capsule_md.name)

    latencies = []
    for name in names:
        t0 = time.perf_counter()
        _, found = leaf.lookup_recursive(name)
        for entry in found:
            entry.verify(now=0.0)
        latencies.append((time.perf_counter() - t0) * 1000.0)
        if not found:
            raise RuntimeError("cold resolution missed a registered name")
    return _percentiles(latencies)


def _bench_forwarding(quick: bool) -> dict:
    """End-to-end reads through a federated sim world: total data-PDU
    forwards per wall-clock second (packed-FIB hits on every hop)."""
    from repro.client import GdpClient, OwnerConsole
    from repro.crypto.keys import SigningKey
    from repro.server import DataCapsuleServer
    from repro.sim.topology import federated_campus

    reads = FORWARD_READS_QUICK if quick else FORWARD_READS
    topo = federated_campus(2, seed=7, routers_per_domain=2)
    net = topo.net
    server = DataCapsuleServer(net, "bench_srv")
    server.attach(topo.routers["site0_r1"], latency=0.001)
    writer_client = GdpClient(net, "bench_w")
    writer_client.attach(topo.routers["site0_r0"], latency=0.001)
    reader_client = GdpClient(net, "bench_r")
    reader_client.attach(topo.routers["site1_r1"], latency=0.001)
    owner = SigningKey.from_seed(b"bench-fwd-owner")
    writer_key = SigningKey.from_seed(b"bench-fwd-writer")
    console = OwnerConsole(writer_client, owner)

    def scenario():
        for endpoint in (server, writer_client, reader_client):
            yield endpoint.advertise()
        metadata = console.design_capsule(writer_key.public)
        yield from console.place_capsule(metadata, [server.metadata])
        yield 0.5
        writer = writer_client.open_writer(metadata, writer_key)
        yield from writer.append(b"bench-payload")
        for _ in range(reads):
            yield from reader_client.read(metadata.name, 1)
        return True

    t0 = time.perf_counter()
    net.sim.run_process(scenario())
    elapsed = time.perf_counter() - t0
    forwarded = sum(
        r.metrics.counter("router.forwarded").value
        for r in topo.routers.values()
    )
    return {
        "reads": reads,
        "pdus_forwarded": forwarded,
        "wall_seconds": round(elapsed, 3),
        "pdus_per_sec": round(forwarded / elapsed, 1),
    }


def _bench_dht_ring(n_nodes: int) -> dict:
    """One Kademlia ring: sampled put/get traffic with per-query round
    accounting against the ceil(log2 n) + 2 bound."""
    from repro.naming.names import GdpName
    from repro.routing.dht import build_dht

    ring = build_dht(
        [
            GdpName(hashlib.sha256(b"bench-dht:%d:%d" % (n_nodes, i)).digest())
            for i in range(n_nodes)
        ],
        k=8,
    )
    vias = sorted(ring.nodes)
    bound = math.ceil(math.log2(n_nodes)) + 2
    hops, messages = [], []
    for i in range(DHT_OPS_PER_RING):
        key = GdpName(hashlib.sha256(b"bench-dht-key:%d" % i).digest())
        ring.put(vias[i % len(vias)], key, b"v%d" % i)
        hops.append(ring.last_hops)
        messages.append(ring.last_messages)
        values = ring.get(vias[(i * 7 + 3) % len(vias)], key)
        hops.append(ring.last_hops)
        messages.append(ring.last_messages)
        if b"v%d" % i not in values:
            raise RuntimeError("DHT get missed a stored key")
    return {
        "nodes": n_nodes,
        "operations": DHT_OPS_PER_RING * 2,
        "mean_hops": round(sum(hops) / len(hops), 2),
        "max_hops": max(hops),
        "hop_bound": bound,
        "mean_messages": round(sum(messages) / len(messages), 1),
    }


def _bench_dht_churn() -> dict:
    """The churn cell: store keys, crash up to k-1 of each key's holder
    nodes, and resolve through a surviving access point — every get must
    still return the value (k-replica durability is the design point,
    not luck).  Crashed holders restart between keys so churn windows
    stay at exactly k-1 dark replicas."""
    from repro.naming.names import GdpName
    from repro.routing.dht import build_dht

    n_nodes = DHT_CHURN_NODES
    ring = build_dht(
        [
            GdpName(
                hashlib.sha256(b"bench-dht-churn:%d" % i).digest()
            )
            for i in range(n_nodes)
        ],
        k=8,
    )
    vias = sorted(ring.nodes)
    survived = 0
    max_killed = 0
    hops = []
    for i in range(DHT_CHURN_KEYS):
        key = GdpName(
            hashlib.sha256(b"bench-dht-churn-key:%d" % i).digest()
        )
        value = b"churn%d" % i
        ring.put(vias[i % len(vias)], key, value)
        # God-mode holder census (bench harness, not protocol code).
        holders = [
            name
            for name in vias
            if ring.nodes[name].store.get(key)
        ]
        killed = []
        for holder in holders[: ring.k - 1]:
            node = ring.nodes[holder]
            if not node.crashed:
                node.crash()
                killed.append(node)
        max_killed = max(max_killed, len(killed))
        dark = {node.name for node in killed}
        via = next(name for name in vias if name not in dark)
        values = ring.get(via, key)
        hops.append(ring.last_hops)
        if value in values:
            survived += 1
        for node in killed:
            node.restart()
    return {
        "nodes": n_nodes,
        "keys": DHT_CHURN_KEYS,
        "replicas_killed_per_key": max_killed,
        "survived": survived,
        "mean_hops": round(sum(hops) / len(hops), 2),
        "survival": survived == DHT_CHURN_KEYS,
    }


def _bench_purge_level(n: int, server_md) -> dict:
    """Lease-wheel reclamation with PURGE_LIVE_FRACTION of names still
    live: wall time and per-expired-entry cost."""
    from repro.routing.glookup import GLookupService

    live_every = max(1, int(1 / PURGE_LIVE_FRACTION))
    clock = {"now": 0.0}
    service = GLookupService(
        "bench-purge", verify_on_register=False, clock=lambda: clock["now"]
    )
    for i in range(n):
        expires = 1e18 if i % live_every == 0 else 10.0 + (i % 50) * 0.01
        service.register(
            _synthetic_entry(_name_raw(i), server_md, expires_at=expires)
        )
    service._map.compact()
    expected = n - len(range(0, n, live_every))
    clock["now"] = 100.0
    t0 = time.perf_counter()
    purged = service.purge_expired()
    elapsed = time.perf_counter() - t0
    if purged != expected:
        raise RuntimeError(
            f"purge reclaimed {purged}, expected {expected}"
        )
    return {
        "names": n,
        "purged": purged,
        "live_after": len(service),
        "seconds": round(elapsed, 4),
        "us_per_expired": round(elapsed / purged * 1e6, 3),
    }


def run_bench(*, quick: bool = False, progress=None) -> dict:
    """Run every scenario; returns the BENCH_routing.json document."""

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    levels = LEVELS_QUICK if quick else LEVELS
    rings = DHT_RINGS_QUICK if quick else DHT_RINGS
    server_md = _shared_evidence()

    level_docs = []
    for n in levels:
        note(f"packed tables: {n:,} names (FIB)")
        fib = _bench_fib_level(n)
        note(f"packed tables: {n:,} names (GLookup)")
        glookup = _bench_glookup_level(n, server_md)
        level_docs.append({"names": n, "fib": fib, "glookup": glookup})

    note(f"cold resolution: {COLD_SAMPLES} signed chains")
    cold = _bench_cold_resolution()
    note("forwarding: federated sim world")
    forwarding = _bench_forwarding(quick)
    ring_docs = []
    for n_nodes in rings:
        note(f"dht ring: {n_nodes} nodes")
        ring_docs.append(_bench_dht_ring(n_nodes))
    note(f"dht churn: kill k-1 holders per key, {DHT_CHURN_KEYS} keys")
    churn = _bench_dht_churn()
    note("purge scaling: lease wheel with 1% live names")
    purge_small = _bench_purge_level(levels[0], server_md)
    purge_large = (
        purge_small
        if len(levels) == 1
        else _bench_purge_level(levels[-1], server_md)
    )

    top = level_docs[-1]
    gates = {
        "fib_bytes_per_entry": top["fib"]["bytes_per_entry"],
        "warm_resolution_p99_ms": top["glookup"]["warm_lookup"]["p99_ms"],
        "dht_hops_within_bound": all(
            ring["max_hops"] <= ring["hop_bound"] for ring in ring_docs
        ),
        "dht_churn_survival": churn["survival"],
        "purge_cost_ratio": round(
            purge_large["us_per_expired"]
            / max(purge_small["us_per_expired"], 1e-9),
            2,
        ),
    }
    return {
        "schema": "gdp-bench-routing/1",
        "quick": quick,
        "levels": level_docs,
        "cold_resolution": cold,
        "forwarding": forwarding,
        "dht": ring_docs,
        "dht_churn": churn,
        "purge": {
            "live_fraction": PURGE_LIVE_FRACTION,
            "small": purge_small,
            "large": purge_large,
        },
        "gates": gates,
    }


def check_regression(current: dict, baseline: dict) -> list[str]:
    """Compare a fresh run against the checked-in baseline; returns a
    list of failure strings (empty = gate passes).

    Absolute gates: FIB bytes/entry, warm resolution p99, the DHT hop
    bound, and the purge cost ratio (ISSUE acceptance criteria).
    Regression gates: bytes/entry and warm p99 compared level-by-level
    against matching levels in the baseline (a ``--quick`` run checks
    only its 10k level against the committed full baseline's 10k
    level), 30% tolerance.  Latency values under the noise floor are
    exempt from the band (but never from the absolute ceiling) —
    microsecond-scale percentile jitter is not a regression.
    """
    failures = []
    gates = current.get("gates", {})
    for key in ("fib_bytes_per_entry", "warm_resolution_p99_ms",
                "purge_cost_ratio"):
        value = gates.get(key)
        if value is None:
            failures.append(f"gates.{key}: missing from current run")
        elif value > GATED_LIMITS[key]:
            failures.append(
                f"gates.{key}: {value} exceeds the "
                f"{GATED_LIMITS[key]} ceiling"
            )
    if not gates.get("dht_hops_within_bound", False):
        failures.append(
            "gates.dht_hops_within_bound: a DHT lookup exceeded "
            "ceil(log2 n) + 2 iterative rounds"
        )
    if not gates.get("dht_churn_survival", False):
        failures.append(
            "gates.dht_churn_survival: a get failed after k-1 replica "
            "holders crashed"
        )
    base_levels = {
        doc.get("names"): doc for doc in baseline.get("levels", [])
    }
    for doc in current.get("levels", []):
        base = base_levels.get(doc.get("names"))
        if base is None:
            continue
        n = doc["names"]
        pairs = (
            (
                f"levels[{n}].fib.bytes_per_entry",
                doc["fib"]["bytes_per_entry"],
                base["fib"]["bytes_per_entry"],
                None,
            ),
            (
                f"levels[{n}].glookup.warm_lookup.p99_ms",
                doc["glookup"]["warm_lookup"]["p99_ms"],
                base["glookup"]["warm_lookup"]["p99_ms"],
                _LATENCY_NOISE_FLOOR_MS,
            ),
        )
        for label, cur_value, base_value, noise_floor in pairs:
            if noise_floor is not None and cur_value <= noise_floor:
                continue
            if cur_value > base_value * (1 + _REGRESSION_TOLERANCE):
                failures.append(
                    f"{label}: {cur_value} regressed >30% from "
                    f"baseline {base_value}"
                )
    return failures


def format_table(doc: dict) -> str:
    """Human-readable summary of a benchmark document."""
    lines = [
        "packed tables",
        "names        fib B/entry  fib p99 us   gl B/entry   gl p99 us",
        "-" * 62,
    ]
    for level in doc["levels"]:
        fib = level["fib"]
        gl = level["glookup"]
        lines.append(
            f"{level['names']:>10,}  {fib['bytes_per_entry']:>10.1f} "
            f"{fib['warm_get']['p99_ms'] * 1000:>11.1f} "
            f"{gl['bytes_per_entry']:>11.1f} "
            f"{gl['warm_lookup']['p99_ms'] * 1000:>11.1f}"
        )
    cold = doc["cold_resolution"]
    forwarding = doc["forwarding"]
    purge = doc["purge"]
    lines += [
        "",
        f"cold resolution ({cold['samples']} signed chains): "
        f"p50 {cold['p50_ms']:.2f}ms, p99 {cold['p99_ms']:.2f}ms",
        f"forwarding: {forwarding['pdus_forwarded']:,} PDUs in "
        f"{forwarding['wall_seconds']:.1f}s wall = "
        f"{forwarding['pdus_per_sec']:,.0f} PDU/s",
        "",
        "dht rings",
        "nodes   mean hops   max hops   bound   mean msgs",
        "-" * 48,
    ]
    for ring in doc["dht"]:
        lines.append(
            f"{ring['nodes']:>5} {ring['mean_hops']:>11.2f} "
            f"{ring['max_hops']:>10} {ring['hop_bound']:>7} "
            f"{ring['mean_messages']:>11.1f}"
        )
    churn = doc.get("dht_churn")
    if churn:
        lines.append(
            f"churn: {churn['survived']}/{churn['keys']} gets survived "
            f"{churn['replicas_killed_per_key']} dark holders "
            f"({churn['nodes']} nodes, mean {churn['mean_hops']:.2f} hops)"
        )
    lines += [
        "",
        f"purge ({purge['live_fraction']:.0%} live): "
        f"{purge['small']['us_per_expired']:.2f}us/entry @ "
        f"{purge['small']['names']:,} -> "
        f"{purge['large']['us_per_expired']:.2f}us/entry @ "
        f"{purge['large']['names']:,} "
        f"(ratio {doc['gates']['purge_cost_ratio']:.2f}x)",
    ]
    return "\n".join(lines)


def load_baseline(path: str) -> dict:
    """Read a BENCH_routing.json document from *path*."""
    with open(path) as fh:
        return json.load(fh)
