"""Crash-point torture harness for the segmented storage engine.

The engine's durability claims only mean something if the store is
actually killed at every boundary where a real process can die.  This
module turns :data:`~repro.server.segmented.CRASH_POINTS` into an
executable sweep:

1. :func:`build_history` mints a real signed history once (records +
   heartbeats through :class:`~repro.capsule.CapsuleWriter`).
2. :func:`count_crash_sites` dry-runs the schedule with a counting hook
   to learn how many times each crash site is reached.
3. :func:`run_crash_case` replays the schedule with a hook armed to
   kill the store at the N-th hit of one site, reopens a *fresh* store
   over the surviving files, replays it as the server's recovery does
   (:func:`~repro.server.storage.replay`), and checks the invariants:

   - **No acked loss** — every record whose append returned is present
     after reopen.
   - **Refusals only past the ack** — a seal between a run's records and
     its heartbeat can leave records durable, unacked and unattested;
     every heartbeat frame must verify.
   - **No phantoms** — every recovered record was minted by the writer
     (a torn frame can only destroy data, never invent it).
   - **Chain re-verifies** — ``verify_history`` passes from the newest
     heartbeat whose record survived.
   - **Truncation logged once** — the torn tail produces exactly one
     ``tail_truncated`` event; a second reopen produces none (recovery
     converges).
   - **Replay converges** — a second reopen replays to the same record
     set.

The torture tests (``tests/torture/``) sweep every (site, hit) pair;
the hypothesis property tests (``tests/property/``) drive the same
checker over generated append/seal/compact schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capsule import CapsuleWriter, DataCapsule, Record
from repro.crypto.keys import SigningKey
from repro.errors import GdpError
from repro.naming.metadata import Metadata, make_capsule_metadata
from repro.server.segmented import SegmentedStore, SimulatedCrash
from repro.server.storage import replay

__all__ = [
    "CrashHook",
    "SiteCounter",
    "TortureHistory",
    "TortureResult",
    "build_history",
    "run_schedule",
    "count_crash_sites",
    "run_crash_case",
    "verify_recovery",
]


class CrashHook:
    """Kill the store at the *hit*-th arrival at *site*."""

    def __init__(self, site: str, hit: int = 1):
        self.site = site
        self.hit = hit
        self.seen = 0

    def __call__(self, site: str) -> None:
        if site == self.site:
            self.seen += 1
            if self.seen == self.hit:
                raise SimulatedCrash(f"{self.site}#{self.hit}")


class SiteCounter:
    """Count crash-site arrivals without ever crashing (the dry run)."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def __call__(self, site: str) -> None:
        self.counts[site] = self.counts.get(site, 0) + 1


@dataclass
class TortureHistory:
    """A pre-minted signed history, reusable across many crash cases
    (minting signs every heartbeat, so it is the expensive part)."""

    metadata: Metadata
    steps: list[tuple[dict, dict]]  # (record_wire, heartbeat_wire)
    record_digests: list[bytes]
    checkpoint_every: int

    def __len__(self) -> int:
        return len(self.steps)


def build_history(
    n_records: int,
    *,
    seed: bytes = b"torture",
    strategy: str = "checkpoint:8",
    payload_bytes: int = 24,
) -> TortureHistory:
    """Mint *n_records* signed (record, heartbeat) wire pairs."""
    owner = SigningKey.from_seed(b"torture-owner:" + seed)
    writer_key = SigningKey.from_seed(b"torture-writer:" + seed)
    metadata = make_capsule_metadata(
        owner,
        writer_key.public,
        pointer_strategy=strategy,
        extra={"torture_seed": seed},
    )
    writer = CapsuleWriter(metadata, writer_key)
    steps = []
    digests = []
    for i in range(n_records):
        record, heartbeat = writer.append(
            (b"torture-%06d-" % i).ljust(payload_bytes, b"x")
        )
        steps.append((record.to_wire(), heartbeat.to_wire()))
        digests.append(record.digest)
    checkpoint_every = 0
    if strategy.startswith("checkpoint:"):
        checkpoint_every = int(strategy.split(":", 1)[1])
    return TortureHistory(metadata, steps, digests, checkpoint_every)


@dataclass
class ScheduleConfig:
    """Knobs for how hard the schedule works the engine."""

    segment_bytes: int = 700  # tiny: force many seals
    hot_segments: int = 1
    compact_every: int = 0  # explicit compact() every N appends (0: off)
    fsync_policy: str = "always"


@dataclass
class TortureResult:
    site: str
    hit: int
    crashed: bool
    acked: int
    recovered: int
    truncations: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _make_store(
    root: str, tier, config: ScheduleConfig, hook=None
) -> SegmentedStore:
    return SegmentedStore(
        root,
        fsync_policy=config.fsync_policy,
        segment_bytes=config.segment_bytes,
        hot_segments=config.hot_segments,
        tier=tier,
        crash_hook=hook,
    )


def run_schedule(
    root: str,
    tier,
    history: TortureHistory,
    config: ScheduleConfig,
    hook=None,
) -> tuple[int, bool]:
    """Drive the store through the full schedule; returns
    ``(acked_records, crashed)``.  Each append is one ``append_entries``
    of the record and its heartbeat, as the server persists it, and
    counts as *acked* only once that call returned without the
    simulated crash firing."""
    name = history.metadata.name
    store = _make_store(root, tier, config, hook)
    acked = 0
    crashed = False
    try:
        store.store_hosting(name, {"metadata": history.metadata.to_wire()})
        for i, (record_wire, heartbeat_wire) in enumerate(history.steps):
            seqno = record_wire["seqno"]
            store.append_entries(name, [("r", record_wire), ("h", heartbeat_wire)])
            acked = i + 1
            if (
                history.checkpoint_every
                and seqno % history.checkpoint_every == 0
            ):
                store.note_checkpoint(name, seqno)
            if config.compact_every and (i + 1) % config.compact_every == 0:
                store.compact(name)
        store.sync()
        store.close()
    except SimulatedCrash:
        crashed = True
    return acked, crashed


def count_crash_sites(
    root: str, tier, history: TortureHistory, config: ScheduleConfig
) -> dict[str, int]:
    """Dry-run the schedule; how often is each crash site reached?"""
    counter = SiteCounter()
    acked, crashed = run_schedule(root, tier, history, config, counter)
    assert not crashed and acked == len(history)
    return counter.counts


def verify_recovery(
    root: str,
    tier,
    history: TortureHistory,
    config: ScheduleConfig,
    acked: int,
    crashed: bool,
) -> TortureResult:
    """Reopen the store cold and check every recovery invariant."""
    violations: list[str] = []
    name = history.metadata.name
    store = _make_store(root, tier, config)
    entries = list(store.load_entries(name))
    replica = DataCapsule(history.metadata, verify_metadata=False)
    _, refused = replay(replica, entries)
    recovered_digests = {record.digest for record in replica.records()}
    # Every CRC-valid record frame, stored unchecked.
    framed = DataCapsule(history.metadata, verify_metadata=False)
    for tag, wire in entries:
        if tag == "r":
            try:
                framed._store(Record.from_wire(name, wire))
            except GdpError as exc:
                violations.append(f"recovered frame failed validation: {exc}")
                refused -= 1
    minted = set(history.record_digests)
    for i in range(acked):
        if history.record_digests[i] not in recovered_digests:
            violations.append(
                f"ACKED RECORD LOST: seqno {i + 1} "
                f"(acked={acked}, recovered={len(recovered_digests)})"
            )
    unrecovered = [r for r in framed.records() if r.digest not in recovered_digests]
    violations += [
        f"replay refused record {r.seqno} (acked={acked})"
        for r in unrecovered
        if r.seqno <= acked
    ]
    if refused > len(unrecovered):  # the rest are heartbeat frames
        violations.append(f"replay refused {refused - len(unrecovered)} heartbeats")
    phantoms = recovered_digests - minted
    if phantoms:
        violations.append(f"{len(phantoms)} phantom records recovered")
    truncations = sum(
        1 for e in store.recovery_log if e["event"] == "tail_truncated"
    )
    if truncations > 1:
        violations.append(f"tail truncation logged {truncations} times")
    # The chain must re-verify from the newest heartbeat whose record
    # survived (later heartbeats may have died with the tail).
    anchor = max(
        (h for h in replica.heartbeats() if h.digest in recovered_digests),
        key=lambda h: h.seqno,
        default=None,
    )
    if anchor is not None:
        try:
            replica.verify_history(anchor)
        except GdpError as exc:
            violations.append(f"hash chain failed to re-verify: {exc}")
    elif acked > 0:
        violations.append("no usable heartbeat anchor survived")
    store.close()
    # Recovery must converge: a second reopen sees a clean tail and the
    # same record set.
    again = _make_store(root, tier, config)
    rebuilt = DataCapsule(history.metadata, verify_metadata=False)
    replay(rebuilt, again.load_entries(name))
    if rebuilt.canonical_summary() != replica.canonical_summary():
        violations.append("second reopen produced a different record set")
    if any(e["event"] == "tail_truncated" for e in again.recovery_log):
        violations.append("second reopen truncated the tail again")
    again.close()
    return TortureResult(
        site="",
        hit=0,
        crashed=crashed,
        acked=acked,
        recovered=len(recovered_digests),
        truncations=truncations,
        violations=violations,
    )


def run_crash_case(
    root: str,
    tier,
    history: TortureHistory,
    config: ScheduleConfig,
    site: str,
    hit: int,
) -> TortureResult:
    """One torture case: crash at the hit-th arrival of *site*, then
    verify recovery."""
    hook = CrashHook(site, hit)
    acked, crashed = run_schedule(root, tier, history, config, hook)
    result = verify_recovery(root, tier, history, config, acked, crashed)
    result.site = site
    result.hit = hit
    return result
