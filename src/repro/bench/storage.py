"""Storage-engine suite (``repro bench --suite storage``).

Two scenarios over :class:`SegmentedStore`, the one durable backend:

**Durable append** (gated).  The server's actual persistence shape —
one ``append_entries([record, heartbeat])`` call per acknowledged
append, durability required — under ``FsyncPolicy("always")`` (an
fsync per ack) and under ``FsyncPolicy("batch:65536")`` (the fleet's
bounded-loss batched fsync).  Same engine, same frames; the ratio is
what the policy's amortization buys, and the gate requires batching
never to lose to fsync-per-ack.  Alternating trials (A/B/A/B...) let a
slow phase of a shared disk hit both; the ratio is of their medians.

**Sustained build + cold replay** (shape-checked).  A single capsule
grown to 10M records (``--quick``: 200k) through seal/tier cycles
against the directory object tier, reporting sustained records/sec —
the engine's batch-append rate, framing and CRC included — then what
a server restart reads from the store: a cold reopen streaming
``load_entries`` (most segments come back from the object tier),
reporting replayed records/sec.  A replay that returns a different
record count than was written fails the run.

Record wires are synthesized (correct shape, no real signatures):
storage engines never verify signatures, and minting 10M signed records
would measure the signer, not the store.  Wall-clock numbers are
machine-dependent; the gate therefore puts its floor and the 30% band
on the *ratio* (both sides measured on the same machine) and checks
the sustained cells for shape only.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import tempfile
import time

from repro.bench.gate import Gate

__all__ = ["run", "GATES", "table"]

GATES = (
    Gate("ratios.durable_append_ratio", "higher", floor=1.0),
    # The sustained scenario is checked for shape only: its absolute
    # throughput is hardware, and --quick runs a smaller build than the
    # committed 10M-record baseline.
    Gate("sustained.records", "higher", band=None),
    Gate("sustained.records_per_sec", "higher", band=None),
    Gate("sustained.tiered_segments", "higher", floor=1, band=None,
         why="nothing tiered — the replay never left the local disk"),
    Gate("sustained.replay.records_per_sec", "higher", band=None),
)

#: fsynced acks per trial, and alternating trials per policy
DURABLE_ACKS = 1_000
DURABLE_PAIRS = 5
#: the fsync policies raced in the durable-append scenario: an fsync
#: per ack, and the fleet's bounded-loss batch
ALWAYS, BATCHED = "always", "batch:65536"
PAYLOAD_BYTES = 64

SUSTAINED_RECORDS = 10_000_000
SUSTAINED_RECORDS_QUICK = 200_000
SUSTAINED_BATCH = 1_000
SUSTAINED_SEGMENT_BYTES = 4 << 20
SUSTAINED_SEGMENT_BYTES_QUICK = 1 << 20


def _capsule_name(label: str):
    from repro.naming.names import GdpName

    return GdpName(hashlib.sha256(b"bench-storage:" + label.encode()).digest())


def _hosting_wire() -> dict:
    return {
        "metadata": {"owner": b"o" * 32, "writer": b"w" * 32, "strategy": "chain"}
    }


def _record_wire(seqno: int) -> dict:
    payload = (b"%012d:" % seqno).ljust(PAYLOAD_BYTES, b"x")
    return {
        "seqno": seqno,
        "payload": payload,
        "pointers": [[seqno - 1, b"\x00" * 32]],
    }


def _heartbeat_wire(seqno: int) -> dict:
    return {
        "seqno": seqno,
        "timestamp": seqno,
        "record": b"\x00" * 32,
        "signature": b"s" * 64,
    }


def _bench_durable(root: str) -> dict:
    """One fsync-required ack at a time through the same engine under
    :data:`ALWAYS` and under :data:`BATCHED`, alternating for
    :data:`DURABLE_PAIRS` trials; each policy reports its median."""
    from repro.server.segmented import SegmentedStore

    name = _capsule_name("durable")
    pairs = [
        [("r", _record_wire(i)), ("h", _heartbeat_wire(i))]
        for i in range(1, DURABLE_ACKS + 1)
    ]
    trials: dict[str, list[float]] = {ALWAYS: [], BATCHED: []}
    for trial in range(DURABLE_PAIRS):
        for policy in (ALWAYS, BATCHED):
            store = SegmentedStore(
                os.path.join(root, f"d{trial}-" + policy.replace(":", "-")),
                fsync_policy=policy,
                segment_bytes=SUSTAINED_SEGMENT_BYTES,
            )
            store.store_hosting(name, _hosting_wire())
            start = time.perf_counter()
            for pair in pairs:
                store.append_entries(name, pair)
            store.sync()
            elapsed = time.perf_counter() - start
            store.close()
            trials[policy].append(round(DURABLE_ACKS / elapsed, 1))
    return {
        policy: {"acks_per_sec": statistics.median(rates), "trials": rates}
        for policy, rates in trials.items()
    }


def _bench_sustained(root: str, quick: bool, note) -> dict:
    """Grow one capsule through seal/tier cycles, then time a cold
    reopen's replay of it."""
    from repro.baselines.s3sim import DirectoryObjectTier
    from repro.server.segmented import SegmentedStore

    records = SUSTAINED_RECORDS_QUICK if quick else SUSTAINED_RECORDS
    segment_bytes = (
        SUSTAINED_SEGMENT_BYTES_QUICK if quick else SUSTAINED_SEGMENT_BYTES
    )
    name = _capsule_name("sustained")
    store_root = os.path.join(root, "sustained")
    tier_root = os.path.join(root, "tier")

    def make_store():
        return SegmentedStore(
            store_root,
            fsync_policy="batch:1048576",
            segment_bytes=segment_bytes,
            hot_segments=4,
            tier=DirectoryObjectTier(tier_root),
        )

    store = make_store()
    store.store_hosting(name, _hosting_wire())
    start = time.perf_counter()
    written = 0
    batch = []
    for seqno in range(1, records + 1):
        batch.append(("r", _record_wire(seqno)))
        if len(batch) == SUSTAINED_BATCH:
            store.append_entries(name, batch)
            written += len(batch)
            batch = []
            if written % 1_000_000 == 0:
                note(f"sustained: {written:,}/{records:,} records")
    if batch:
        store.append_entries(name, batch)
    store.sync()
    elapsed = time.perf_counter() - start
    segments = store.segments(name)
    tiered = sum(1 for seg in segments if seg.tier == "object")
    bytes_written = sum(seg.bytes for seg in segments)
    store.close()

    note("sustained: cold reopen + replay")
    cold = make_store()
    start = time.perf_counter()
    replayed = sum(1 for tag, _ in cold.load_entries(name) if tag == "r")
    replay_s = time.perf_counter() - start
    cold.close()
    if replayed != records:
        raise RuntimeError(
            f"replay returned {replayed:,} records, {records:,} written"
        )
    return {
        "records": records,
        "payload_bytes": PAYLOAD_BYTES,
        "segment_bytes": segment_bytes,
        "seconds": round(elapsed, 1),
        "records_per_sec": round(records / elapsed, 1),
        "mb_per_sec": round(bytes_written / elapsed / 1e6, 1),
        "segments": len(segments),
        "tiered_segments": tiered,
        "replay": {
            "seconds": round(replay_s, 1),
            "records_per_sec": round(replayed / replay_s, 1),
        },
    }


def run(quick: bool = False, note=lambda message: None) -> dict:
    """Run both scenarios; returns the BENCH_storage.json document
    (dict).  Wall-clock based — gate on the ratio, not the absolutes."""
    root = tempfile.mkdtemp(prefix="gdp-bench-storage-")
    try:
        note(f"durable append: {DURABLE_PAIRS} x {DURABLE_ACKS} acks per policy")
        durable = _bench_durable(root)
        note(
            "sustained build: "
            f"{(SUSTAINED_RECORDS_QUICK if quick else SUSTAINED_RECORDS):,}"
            " records through seal/tier cycles"
        )
        sustained = _bench_sustained(root, quick, note)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    return {
        "schema": "gdp-bench-storage/2",
        "quick": quick,
        "durable_append": {"acks": DURABLE_ACKS, "pairs": DURABLE_PAIRS, **durable},
        "sustained": sustained,
        "ratios": {
            "durable_append_ratio": round(
                durable[BATCHED]["acks_per_sec"]
                / durable[ALWAYS]["acks_per_sec"],
                2,
            ),
        },
    }


def table(doc: dict) -> list:
    """The two fsync policies, then the sustained build and its replay."""
    durable, sustained = doc["durable_append"], doc["sustained"]
    replay = sustained["replay"]
    return [
        (
            ("scenario", f"{ALWAYS} /s", f"{BATCHED} /s", "ratio"),
            [(
                f"durable append ({durable['pairs']} x {durable['acks']:,} "
                "fsynced acks, medians)",
                f"{durable[ALWAYS]['acks_per_sec']:,.0f}",
                f"{durable[BATCHED]['acks_per_sec']:,.0f}",
                f"{doc['ratios']['durable_append_ratio']:.2f}x",
            )],
        ),
        "",
        f"sustained build: {sustained['records']:,} records "
        f"({sustained['segments']} segments, "
        f"{sustained['tiered_segments']} tiered)",
        f"  append: {sustained['records_per_sec']:,.0f} records/sec "
        f"({sustained['mb_per_sec']:.1f} MB/s, "
        f"{sustained['seconds']:.0f}s)",
        f"  cold replay: {replay['records_per_sec']:,.0f} records/sec "
        f"({replay['seconds']:.0f}s)",
    ]
