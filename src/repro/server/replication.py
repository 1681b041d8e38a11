"""Leaderless anti-entropy replication (§V-A, §VI-B) — Merkle-delta.

"For any missing records, DataCapsule-servers can synchronize their
state in the background. This effectively leads us to a leaderless
replication design, which is much more efficient in presence of
failures."

The protocol is bandwidth-proportional to *divergence*, not to capsule
length:

1. ``sync_root`` — the peer answers with its tip seqno and one Merkle
   root over its whole sync index (see
   :meth:`~repro.capsule.capsule.DataCapsule.range_root`).  Matching
   roots end the round after ~100 bytes on the wire.
2. ``sync_nodes`` — on mismatch, the shared prefix is binary-bisected:
   each round asks for the roots of the current divergent subranges
   (at most ``SyncConfig.max_ranges`` per request) and keeps only the
   halves that differ, down to single seqnos.  O(log n) round trips,
   O(d·log n) hashes for d divergent records.
3. ``sync_fetch_batch`` — divergent seqnos plus the missing suffix are
   fetched in size-capped record batches with a windowed in-flight
   limit and deterministic exponential retry/backoff.

Fetched records are checked one by one (capsule, links) and fetched
heartbeats must verify, but unlike the write ops (``DataCapsule.admit``)
sync does not yet require a heartbeat to attest each record, so a
sibling can still plant an unattested record here.  Per-(capsule, peer)
:class:`SyncSession` bookkeeping feeds the daemon's stats.

Because capsule state is a join-semilattice (record-set union), rounds
stay idempotent and order-independent; transient *holes* left by the
single-ack fast path heal as soon as any replica that holds the record
is reachable.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Generator

from repro.capsule.heartbeat import Heartbeat
from repro.capsule.records import Record
from repro.errors import GdpError
from repro.naming.names import GdpName
from repro.runtime.context import Periodic
from repro.server.dcserver import DataCapsuleServer, HostedCapsule

__all__ = [
    "AntiEntropyDaemon",
    "SyncConfig",
    "SyncSession",
    "sync_once",
]


@dataclass(frozen=True)
class SyncConfig:
    """Tunables for one delta-sync round."""

    #: max seqnos requested per fetch batch
    batch_records: int = 64
    #: server-side reply budget per batch (bytes of records+heartbeats)
    batch_bytes: int = 64 * 1024
    #: fetch batches kept in flight concurrently
    window: int = 4
    #: bisection probes per sync_nodes request
    max_ranges: int = 64
    #: bisection depth safety valve (2^64 seqnos is beyond any capsule)
    max_rounds: int = 64
    #: per-batch retry attempts after the first failure
    max_retries: int = 2
    #: deterministic exponential backoff: base * 2^attempt, capped
    backoff_base: float = 0.25
    backoff_max: float = 4.0


DEFAULT_CONFIG = SyncConfig()


@dataclass
class SyncSession:
    """Per-(capsule, peer) sync bookkeeping kept across rounds."""

    capsule: GdpName
    peer: GdpName
    rounds: int = 0
    records_fetched: int = 0
    heartbeats_fetched: int = 0
    batches: int = 0
    retries: int = 0
    failures: int = 0
    last_synced: float = field(default=-1.0)


def _reply_body(reply) -> dict | None:
    body = reply.get("body", reply) if isinstance(reply, dict) else None
    if not isinstance(body, dict) or not body.get("ok"):
        return None
    return body


def _absorb(
    server: DataCapsuleServer,
    hosted: HostedCapsule,
    body: dict,
    session: SyncSession | None,
) -> int:
    """Insert fetched records/heartbeats through validation; returns how
    many records were new."""
    capsule_name = hosted.capsule.name
    fetched = 0
    entries: list[tuple[str, dict]] = []
    for record_wire in body.get("records", []):
        try:
            record = Record.from_wire(capsule_name, record_wire)
            if hosted.capsule.insert(record, enforce_strategy=False):
                entries.append(("r", record.to_wire()))
                fetched += 1
        except GdpError:
            continue  # a record that fails its own checks is dropped
    for heartbeat_wire in body.get("heartbeats", []):
        try:
            heartbeat = Heartbeat.from_wire(heartbeat_wire)
            if hosted.capsule.add_heartbeat(heartbeat):
                entries.append(("h", heartbeat.to_wire()))
                if session is not None:
                    session.heartbeats_fetched += 1
        except GdpError:
            continue
    if entries:
        # One buffered write (and one fsync) for the whole validated
        # batch instead of a storage round trip per frame.
        server.storage.append_entries(capsule_name, entries)
    return fetched


def _bisect(
    server: DataCapsuleServer,
    capsule_name: GdpName,
    sibling: GdpName,
    capsule,
    common: int,
    timeout: float,
    config: SyncConfig,
    session: SyncSession | None,
) -> Generator:
    """Find the divergent seqnos in the shared prefix ``[1, common]``
    (already known to mismatch) by binary bisection over range roots."""
    if common == 1:
        return [1]
    divergent: list[int] = []
    worklist: list[tuple[int, int]] = [(1, common)]
    rounds = 0
    while worklist and rounds < config.max_rounds:
        rounds += 1
        probes: list[tuple[int, int]] = []
        for lo, hi in worklist:
            mid = (lo + hi) // 2
            probes.append((lo, mid))
            probes.append((mid + 1, hi))
        worklist = []
        # One round trip per level: every probe chunk of this level is
        # in flight at once (bisection is only sequential across levels).
        inflight = []
        for start in range(0, len(probes), config.max_ranges):
            chunk = probes[start:start + config.max_ranges]
            inflight.append((chunk, server.rpc(
                sibling,
                {
                    "op": "sync_nodes",
                    "capsule": capsule_name.raw,
                    "ranges": [[lo, hi] for lo, hi in chunk],
                },
                timeout=timeout,
            )))
        failed = False
        for chunk, future in inflight:
            try:
                reply = yield future
                body = _reply_body(reply)
            except GdpError:
                body = None
            hashes = body.get("hashes", []) if body is not None else None
            if hashes is None or len(hashes) != len(chunk):
                if session is not None:
                    session.failures += 1
                failed = True
                continue
            for (lo, hi), remote_root in zip(chunk, hashes):
                if remote_root == capsule.range_root(lo, hi):
                    continue
                if lo == hi:
                    divergent.append(lo)
                else:
                    worklist.append((lo, hi))
        if failed:
            # Partial result: unrefined ranges heal on a later round.
            break
    return sorted(divergent)


def _fetch_batches(
    server: DataCapsuleServer,
    hosted: HostedCapsule,
    sibling: GdpName,
    seqnos: list[int],
    timeout: float,
    config: SyncConfig,
    session: SyncSession | None,
) -> Generator:
    """Windowed, size-capped, retried record transfer; returns how many
    records were fetched."""
    capsule_name = hosted.capsule.name
    pending: deque = deque()
    for start in range(0, len(seqnos), config.batch_records):
        pending.append((seqnos[start:start + config.batch_records], 0))
    inflight: deque = deque()
    fetched = 0
    while pending or inflight:
        while pending and len(inflight) < config.window:
            chunk, attempt = pending.popleft()
            future = server.rpc(
                sibling,
                {
                    "op": "sync_fetch_batch",
                    "capsule": capsule_name.raw,
                    "seqnos": list(chunk),
                    "max_bytes": config.batch_bytes,
                },
                timeout=timeout,
            )
            inflight.append((chunk, attempt, future))
            if session is not None:
                session.batches += 1
        chunk, attempt, future = inflight.popleft()
        try:
            reply = yield future
            body = _reply_body(reply)
        except GdpError:
            body = None
        if body is None:
            if attempt < config.max_retries:
                if session is not None:
                    session.retries += 1
                yield min(
                    config.backoff_base * (2 ** attempt),
                    config.backoff_max,
                )
                pending.append((chunk, attempt + 1))
            elif session is not None:
                session.failures += 1
            continue
        fetched += _absorb(server, hosted, body, session)
        served = set(body.get("served", chunk))
        leftover = [s for s in chunk if s not in served]
        # The server always serves at least one seqno, so a leftover
        # equal to the whole chunk means a misbehaving peer: drop it
        # rather than loop forever.
        if leftover and len(leftover) < len(chunk):
            pending.append((leftover, 0))
    return fetched


def sync_once(
    server: DataCapsuleServer,
    capsule_name: GdpName,
    sibling: GdpName,
    *,
    timeout: float = 15.0,
    config: SyncConfig | None = None,
    session: SyncSession | None = None,
) -> Generator:
    """One Merkle-delta synchronization round with one sibling (a sim
    process body); returns the number of records fetched."""
    config = config or DEFAULT_CONFIG
    hosted = server.hosted[capsule_name]
    capsule = hosted.capsule
    if session is not None:
        session.rounds += 1
    try:
        reply = yield server.rpc(
            sibling,
            {"op": "sync_root", "capsule": capsule_name.raw},
            timeout=timeout,
        )
    except GdpError:
        if session is not None:
            session.failures += 1
        return 0
    body = _reply_body(reply)
    if body is None:
        if session is not None:
            session.failures += 1
        return 0
    # The tip heartbeat rides on the root reply: the frontier advances
    # even when the record sets already match.
    heartbeat_wire = body.get("heartbeat")
    if heartbeat_wire is not None:
        try:
            heartbeat = Heartbeat.from_wire(heartbeat_wire)
            if capsule.add_heartbeat(heartbeat):
                server.storage.append_entries(
                    capsule_name, [("h", heartbeat.to_wire())]
                )
        except GdpError:
            pass
    remote_last = int(body.get("last_seqno", 0))
    local_last = capsule.last_seqno
    common = min(local_last, remote_last)
    # The suffix the peer has beyond us is missing by construction.
    candidates = list(range(common + 1, remote_last + 1))
    if common > 0:
        if remote_last == common:
            # The peer's advertised root already covers exactly [1, common].
            remote_common_root = body.get("root")
        else:
            try:
                reply = yield server.rpc(
                    sibling,
                    {
                        "op": "sync_nodes",
                        "capsule": capsule_name.raw,
                        "ranges": [[1, common]],
                    },
                    timeout=timeout,
                )
            except GdpError:
                if session is not None:
                    session.failures += 1
                return 0
            node_body = _reply_body(reply)
            if node_body is None or len(node_body.get("hashes", [])) != 1:
                if session is not None:
                    session.failures += 1
                return 0
            remote_common_root = node_body["hashes"][0]
        if remote_common_root != capsule.range_root(1, common):
            divergent = yield from _bisect(
                server, capsule_name, sibling, capsule,
                common, timeout, config, session,
            )
            candidates = divergent + candidates
    if not candidates:
        if session is not None:
            session.last_synced = server.ctx.now
        return 0
    fetched = yield from _fetch_batches(
        server, hosted, sibling, candidates, timeout, config, session
    )
    if session is not None:
        session.records_fetched += fetched
        session.last_synced = server.ctx.now
    return fetched


class AntiEntropyDaemon(Periodic):
    """Background process syncing every hosted capsule round-robin.

    ``interval`` is the nominal pause between rounds; each round syncs
    each capsule with one sibling (rotating through siblings so full
    pairwise coverage happens over successive rounds).  The jittered
    cadence is :class:`~repro.runtime.context.Periodic`'s, so replicas
    with the same interval stop firing — and hitting the same peers —
    in lockstep, while simtest replays stay byte-identical.
    """

    #: a stop() mid-sleep still runs the round that sleep was for
    finishes_round = True

    def __init__(
        self,
        server: DataCapsuleServer,
        interval: float = 5.0,
        *,
        jitter: float = 0.25,
        rng: random.Random | None = None,
        config: SyncConfig | None = None,
    ):
        super().__init__(
            server.ctx,
            f"antientropy:{server.node_id}",
            interval,
            jitter=jitter,
            rng=rng,
        )
        self.server = server
        self.config = config or DEFAULT_CONFIG
        self.rounds = 0
        self.records_fetched = 0
        self.sessions: dict[tuple[GdpName, GdpName], SyncSession] = {}

    def session_for(
        self, capsule_name: GdpName, sibling: GdpName
    ) -> SyncSession:
        """The persistent per-(capsule, peer) session (created lazily)."""
        key = (capsule_name, sibling)
        session = self.sessions.get(key)
        if session is None:
            session = SyncSession(capsule=capsule_name, peer=sibling)
            self.sessions[key] = session
        return session

    def _tick(self) -> Generator:
        if self.server.crashed:
            return
        for capsule_name in list(self.server.hosted):
            hosted: HostedCapsule = self.server.hosted[capsule_name]
            if not hosted.siblings:
                continue
            sibling = hosted.siblings[self.rounds % len(hosted.siblings)]
            # A gossip round must not outwait its own period, or a
            # dead sibling head-of-line-blocks the daemon.
            fetched = yield from sync_once(
                self.server, capsule_name, sibling,
                timeout=max(self.interval, 1.0),
                config=self.config,
                session=self.session_for(capsule_name, sibling),
            )
            self.records_fetched += fetched
        self.rounds += 1
