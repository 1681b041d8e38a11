"""Commit-plane benchmark: the engine behind
``repro bench --suite commit``.

Concurrent writers drive keyed submissions through the sharded
multi-writer commit plane (§V-A's serialization point, PR 9) inside the
deterministic network simulator, so every number is a function of the
protocol — the emitted document is byte-stable across machines.

**Uniform mix.**  A fixed fleet of submitters spreads blind keyed
updates over 64 keys at 1, 4, and 8 shards; each shard's log lives on
its own storage server (``per_shard_servers``), so the per-shard serial
append chains genuinely run in parallel.  Measured: committed ops per
simulated second.  The headline ratio is committed-throughput scaling
from 1 shard to 4 — the ISSUE's >=3x acceptance floor.

**Hot-key mix.**  The same fleet races compare-and-swap submissions
over only 4 keys, so most submissions conflict and must rebase onto the
winning seqno and retry through the jittered-backoff loop.  Measured:
committed ops/s and total conflicts — plus a hard correctness gate
checked in-process: every intended update must commit exactly once
(zero lost updates) and every committed CAS chain must be linearizable.

``quick=True`` (the CI perf-gate mode) runs only the cells the gate
needs — uniform at 1 and 4 shards, hot at 4 — with identical per-cell
parameters, so quick-run numbers are byte-identical to the same cells
of a full run and the committed baseline gates both.
"""

from __future__ import annotations

import json
import random

__all__ = ["run_bench", "check_regression", "GATED_RATIOS"]

#: ratio keys the CI gate enforces, with the floor each must beat even
#: before regression comparison (the ISSUE's acceptance criteria).
GATED_RATIOS = {
    "shard_scaling_4x": 3.0,
}

_REGRESSION_TOLERANCE = 0.30

#: inter-router link bandwidth (bytes/sim-second) — ample headroom, so
#: cells measure serialization, not a link bottleneck
_LINK_BANDWIDTH = 1_250_000.0

#: submitter fleet shape (identical in every cell, quick or full)
WORKERS = 16
OPS_PER_WORKER = 12
#: uniform mix spreads over this many keys; hot mix races over 4
UNIFORM_KEYS = 64
HOT_KEYS = 4
#: CAS retry budget per intended hot-key update
HOT_ATTEMPTS = 24

#: shard counts per mix: the full sweep and the CI quick gate subset
FULL_SHARDS = (1, 4, 8)
QUICK_UNIFORM_SHARDS = (1, 4)
QUICK_HOT_SHARDS = (4,)


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


def _verify_no_lost_updates(shards, receipts: list, intended: int) -> None:
    """The hot-mix correctness gate: every intended update committed
    exactly once, every receipt is in its shard's log, and every
    committed CAS chain is linearizable (each precondition equals the
    seqno it overwrote)."""
    if len(receipts) != intended:
        raise RuntimeError(
            f"commit benchmark lost updates: {len(receipts)} receipts "
            f"for {intended} intended commits"
        )
    logged = {
        (shard.shard_index, entry["seqno"])
        for shard in shards
        for entry in shard.commit_log
    }
    for receipt in receipts:
        if (receipt.shard, receipt.seqno) not in logged:
            raise RuntimeError(
                f"commit benchmark phantom ack: shard {receipt.shard} "
                f"seqno {receipt.seqno} is not in the shard log"
            )
    for shard in shards:
        versions: dict[str, int] = {}
        for entry in shard.commit_log:
            key = entry["key"]
            if entry["expect"] >= 0 and entry["expect"] != versions.get(key, 0):
                raise RuntimeError(
                    f"commit benchmark CAS chain broken on {key!r}: "
                    f"precondition {entry['expect']} overwrote "
                    f"{versions.get(key, 0)}"
                )
            versions[key] = entry["seqno"]


def _run_cell(n_shards: int, mix: str) -> dict:
    """One (shard count, mix) measurement cell."""
    net, shards, commit_clients = _build_plane(
        n_shards, seed=4001 + n_shards * 17 + (mix == "hot")
    )
    receipts: list = []

    def uniform_worker(index: int, commit_client):
        rng = random.Random(f"bench-commit-uniform:{index}")
        for op in range(OPS_PER_WORKER):
            key = f"u/{rng.randrange(UNIFORM_KEYS)}"
            receipt = yield from commit_client.submit(
                b"bench:%d:%d" % (index, op), key=key
            )
            receipts.append(receipt)

    def hot_worker(index: int, commit_client):
        rng = random.Random(f"bench-commit-hot:{index}")
        seen: dict[str, int] = {}
        for op in range(OPS_PER_WORKER):
            key = f"h/{rng.randrange(HOT_KEYS)}"
            receipt = yield from commit_client.submit_cas(
                key,
                lambda expect: b"bench:%d:%d" % (index, op),
                expect_seqno=seen.get(key, 0),
                attempts=HOT_ATTEMPTS,
            )
            seen[key] = receipt.seqno
            receipts.append(receipt)

    worker = uniform_worker if mix == "uniform" else hot_worker
    elapsed = {}

    def drive():
        start = net.sim.now
        procs = [
            net.sim.spawn(worker(i, commit_client), name=f"bench-w{i}")
            for i, commit_client in enumerate(commit_clients)
        ]
        for proc in procs:
            yield proc.completion
        elapsed["seconds"] = net.sim.now - start

    net.sim.run_process(drive(), "bench-commit-drive")
    intended = WORKERS * OPS_PER_WORKER

    def total(name: str) -> int:
        return sum(shard.metrics.counter(name).value for shard in shards)

    committed = total("commit.committed")
    if mix == "hot":
        _verify_no_lost_updates(shards, receipts, intended)
    elif committed != intended:
        raise RuntimeError(
            f"uniform mix committed {committed}, expected {intended}"
        )
    seconds = elapsed["seconds"]
    return {
        "shards": n_shards,
        "committed": committed,
        "conflicts": total("commit.conflicts"),
        "rejected": total("commit.rejected"),
        "seconds": round(seconds, 6),
        "committed_per_sec": round(committed / seconds, 1),
        "lost_updates": intended - len(receipts),
    }


def run_bench(*, quick: bool = False, progress=None) -> dict:
    """Run the shard-scaling sweep; returns the BENCH_commit.json
    document (dict).  Deterministic: simulated time only, so per-cell
    numbers are identical on every machine (and between quick and full
    runs of the same cell)."""

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    uniform_shards = QUICK_UNIFORM_SHARDS if quick else FULL_SHARDS
    hot_shards = QUICK_HOT_SHARDS if quick else FULL_SHARDS
    uniform = {}
    for n in uniform_shards:
        note(f"uniform mix: {n} shard{'s' if n > 1 else ''}")
        uniform[f"shards_{n}"] = _run_cell(n, "uniform")
    hot = {}
    for n in hot_shards:
        note(f"hot-key mix: {n} shard{'s' if n > 1 else ''}")
        hot[f"shards_{n}"] = _run_cell(n, "hot")

    base = uniform["shards_1"]["committed_per_sec"]
    ratios = {
        "shard_scaling_4x": round(
            uniform["shards_4"]["committed_per_sec"] / base, 2
        ),
    }
    if "shards_8" in uniform:
        ratios["shard_scaling_8x"] = round(
            uniform["shards_8"]["committed_per_sec"] / base, 2
        )
    return {
        "schema": "gdp-bench-commit/1",
        "quick": quick,
        "workers": WORKERS,
        "ops_per_worker": OPS_PER_WORKER,
        "uniform_keys": UNIFORM_KEYS,
        "hot_keys": HOT_KEYS,
        "uniform": uniform,
        "hot": hot,
        "ratios": ratios,
    }


def check_regression(current: dict, baseline: dict) -> list[str]:
    """Compare a fresh run against the checked-in baseline; returns a
    list of failure strings (empty = gate passes).

    Gated: the 1->4 shard scaling ratio must beat its 3x floor and stay
    within 30% of the baseline; per-cell committed throughput must not
    drop >30% (only cells present in both documents are compared, so a
    ``--quick`` run gates cleanly against a full baseline); and the
    hot-key mix must report zero lost updates.  The simulator is
    deterministic, so every comparison is machine-independent.
    """
    failures = []
    cur = current.get("ratios", {})
    base = baseline.get("ratios", {})
    for key, floor in GATED_RATIOS.items():
        if key not in cur:
            failures.append(f"ratios.{key}: missing from current run")
            continue
        if cur[key] < floor:
            failures.append(
                f"ratios.{key}: {cur[key]:.2f}x is below the "
                f"{floor:.1f}x acceptance floor"
            )
        if key in base and cur[key] < base[key] * (1 - _REGRESSION_TOLERANCE):
            failures.append(
                f"ratios.{key}: {cur[key]:.2f}x regressed >30% from "
                f"baseline {base[key]:.2f}x"
            )
    for mix in ("uniform", "hot"):
        for cell_name, cell in sorted(current.get(mix, {}).items()):
            base_cell = baseline.get(mix, {}).get(cell_name)
            if base_cell is None:
                continue
            cur_rate = cell["committed_per_sec"]
            base_rate = base_cell["committed_per_sec"]
            if cur_rate < base_rate * (1 - _REGRESSION_TOLERANCE):
                failures.append(
                    f"{mix}.{cell_name}.committed_per_sec: "
                    f"{cur_rate:.0f} dropped >30% from baseline "
                    f"{base_rate:.0f}"
                )
    for cell_name, cell in sorted(current.get("hot", {}).items()):
        if cell.get("lost_updates", 0) != 0:
            failures.append(
                f"hot.{cell_name}: {cell['lost_updates']} lost updates "
                f"(must be zero)"
            )
    return failures


def format_table(doc: dict) -> str:
    """Human-readable summary of a benchmark document."""
    lines = [
        f"commit plane: {doc['workers']} submitters x "
        f"{doc['ops_per_worker']} keyed updates each",
        "mix      shards   committed/s   conflicts   sim seconds",
        "-" * 56,
    ]
    for mix in ("uniform", "hot"):
        for cell_name in sorted(doc.get(mix, {})):
            cell = doc[mix][cell_name]
            lines.append(
                f"{mix:<8} {cell['shards']:>6} "
                f"{cell['committed_per_sec']:>13,.0f} "
                f"{cell['conflicts']:>11,} "
                f"{cell['seconds']:>13.4f}"
            )
    ratios = doc.get("ratios", {})
    if "shard_scaling_4x" in ratios:
        lines.append(
            f"scaling 1->4 shards: {ratios['shard_scaling_4x']:.2f}x"
        )
    if "shard_scaling_8x" in ratios:
        lines.append(
            f"scaling 1->8 shards: {ratios['shard_scaling_8x']:.2f}x"
        )
    return "\n".join(lines)


def load_baseline(path: str) -> dict:
    """Read a BENCH_commit.json document from *path*."""
    with open(path) as fh:
        return json.load(fh)
