"""Commit-plane suite (``repro bench --suite commit``).

Concurrent writers drive keyed submissions through the sharded
multi-writer commit plane (§V-A's serialization point) inside the
deterministic network simulator, so every number is a function of the
protocol — the emitted document is byte-stable across machines.

A fixed fleet of submitters spreads blind keyed updates over 64 keys at
1, 4, and 8 shards; each shard's log lives on its own storage server
(``per_shard_servers``), so the per-shard serial append chains genuinely
run in parallel.  Measured: committed ops per simulated second.  The
headline ratio is committed-throughput scaling from 1 shard to 4 — the
>=3x acceptance floor.  This is the uncontended ceiling under the
ruler's ``commit_contended`` workload (``BENCHMARK.json``), which races
the same 16 submitters over 4 hot keys and carries the no-lost-update /
no-phantom-ack / CAS-chain oracle.

``quick=True`` (the CI perf-gate mode) runs only the cells the scaling
ratio needs — 1 and 4 shards — with identical per-cell parameters, so
quick-run numbers are byte-identical to the same cells of a full run
and the committed baseline gates both.
"""

from __future__ import annotations

import random

from repro.bench.gate import Gate

__all__ = ["run", "GATES", "table"]

GATES = (
    Gate("ratios.shard_scaling_4x", "higher", floor=3.0),
    Gate("uniform.*.committed_per_sec", "higher"),
)

#: inter-router link bandwidth (bytes/sim-second) — ample headroom, so
#: cells measure serialization, not a link bottleneck
_LINK_BANDWIDTH = 1_250_000.0

#: submitter fleet shape (identical in every cell, quick or full)
WORKERS = 16
OPS_PER_WORKER = 12
#: the mix spreads over this many keys
UNIFORM_KEYS = 64

#: shard counts: the full sweep and the CI quick gate subset
FULL_SHARDS = (1, 4, 8)
QUICK_SHARDS = (1, 4)


def _build_plane(n_shards: int, seed: int):
    """One commit-plane world: submitter fleet on one router, shards +
    per-shard storage servers on another, shard maps prefetched so the
    timed section measures only the submit path."""
    from repro.caapi.commit_service import (
        CommitClient,
        CommitShard,
        ShardedCommitService,
    )
    from repro.client import GdpClient, OwnerConsole
    from repro.crypto import SigningKey
    from repro.routing import GdpRouter, RoutingDomain
    from repro.server import DataCapsuleServer
    from repro.sim import SimNetwork

    net = SimNetwork(seed=seed)
    clock = lambda: net.sim.now  # noqa: E731
    domain = RoutingDomain("global", clock=clock)
    r_clients = GdpRouter(net, "rc", domain)
    r_plane = GdpRouter(net, "rp", domain)
    net.connect(r_clients, r_plane, latency=0.001, bandwidth=_LINK_BANDWIDTH)

    servers = []
    shards = []
    for i in range(n_shards):
        server = DataCapsuleServer(net, f"srv{i}")
        server.attach(r_plane, latency=0.0005)
        servers.append(server)
        shard = CommitShard(net, f"shard{i}")
        shard.attach(r_plane, latency=0.0005)
        shards.append(shard)
    front = ShardedCommitService(net, "front", shards)
    front.attach(r_plane, latency=0.0005)

    owner_client = GdpClient(net, "bench_owner")
    owner_client.attach(r_plane, latency=0.0005)
    console = OwnerConsole(
        owner_client, SigningKey.from_seed(b"bench-commit-owner")
    )
    commit_clients = []
    for i in range(WORKERS):
        worker = GdpClient(
            net, f"w{i}", key=SigningKey.from_seed(b"bench-commit-w%d" % i)
        )
        worker.attach(r_clients, latency=0.0005)
        commit_clients.append(CommitClient(
            worker, front.name, coordinator_key=front.key.public
        ))

    def setup():
        for endpoint in servers + shards + [front, owner_client]:
            yield endpoint.advertise()
        for commit_client in commit_clients:
            yield commit_client.client.advertise()
        yield from front.create(
            console,
            [server.metadata for server in servers],
            per_shard_servers=[[server.metadata] for server in servers],
        )
        for commit_client in commit_clients:
            yield from commit_client.fetch_map()

    net.sim.run_process(setup(), "bench-commit-setup")
    return net, shards, commit_clients


def _run_cell(n_shards: int) -> dict:
    """One shard-count measurement cell."""
    net, shards, commit_clients = _build_plane(
        n_shards, seed=4001 + n_shards * 17
    )
    receipts: list = []

    def worker(index: int, commit_client):
        rng = random.Random(f"bench-commit-uniform:{index}")
        for op in range(OPS_PER_WORKER):
            key = f"u/{rng.randrange(UNIFORM_KEYS)}"
            receipt = yield from commit_client.submit(
                b"bench:%d:%d" % (index, op), key=key
            )
            receipts.append(receipt)

    def drive():
        start = net.sim.now
        procs = [
            net.sim.spawn(worker(i, commit_client), name=f"bench-w{i}")
            for i, commit_client in enumerate(commit_clients)
        ]
        for proc in procs:
            yield proc.completion
        return net.sim.now - start

    seconds = net.sim.run_process(drive(), "bench-commit-drive")
    intended = WORKERS * OPS_PER_WORKER

    def total(name: str) -> int:
        return sum(shard.metrics.counter(name).value for shard in shards)

    committed = total("commit.committed")
    if committed != intended:
        raise RuntimeError(
            f"uniform mix committed {committed}, expected {intended}"
        )
    return {
        "shards": n_shards,
        "committed": committed,
        "conflicts": total("commit.conflicts"),
        "rejected": total("commit.rejected"),
        "seconds": round(seconds, 6),
        "committed_per_sec": round(committed / seconds, 1),
        "lost_updates": intended - len(receipts),
    }


def run(quick: bool = False, note=lambda message: None) -> dict:
    """Run the shard-scaling sweep; returns the BENCH_commit.json
    document (dict).  Deterministic: simulated time only, so per-cell
    numbers are identical on every machine (and between quick and full
    runs of the same cell)."""
    shards = QUICK_SHARDS if quick else FULL_SHARDS
    uniform = {}
    for n in shards:
        note(f"uniform mix: {n} shard{'s' if n > 1 else ''}")
        uniform[f"shards_{n}"] = _run_cell(n)

    base = uniform["shards_1"]["committed_per_sec"]
    ratios = {
        f"shard_scaling_{n}x": round(
            uniform[f"shards_{n}"]["committed_per_sec"] / base, 2
        )
        for n in shards[1:]
    }
    return {
        "schema": "gdp-bench-commit/1",
        "quick": quick,
        "workers": WORKERS,
        "ops_per_worker": OPS_PER_WORKER,
        "uniform_keys": UNIFORM_KEYS,
        "uniform": uniform,
        "ratios": ratios,
    }


def table(doc: dict) -> list:
    """Committed throughput per shard count, then the scaling ratios."""
    cells = [doc["uniform"][name] for name in sorted(doc["uniform"])]
    return [
        f"commit plane: {doc['workers']} submitters x "
        f"{doc['ops_per_worker']} keyed updates each",
        (
            ("shards", "committed/s", "conflicts", "sim seconds"),
            [
                (cell["shards"], f"{cell['committed_per_sec']:,.0f}",
                 f"{cell['conflicts']:,}", f"{cell['seconds']:.4f}")
                for cell in cells
            ],
        ),
        *(f"{name}: {ratio:.2f}x" for name, ratio in doc["ratios"].items()),
    ]
