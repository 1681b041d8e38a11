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

Every reply is acted on only once it opens through the one verifier
(:meth:`~repro.server.dcserver.DataCapsuleServer.accept_sibling_reply`):
signed by the sibling asked, for this request and this capsule.  A
forged "roots agree" fails the round (``SyncSession.failures``) instead
of ending it.  Sync stores only what the write ops' one attestation rule admits
(``DataCapsule.admit_fetched``): heartbeats first, including the tip
heartbeat on ``sync_root``; then each record a verified heartbeat or an
attested record's hash pointer attests.  The rest wait for a later
reply of the round (say the batch carrying a stream's tip heartbeat)
and are dropped, counted as refused, when it ends.  Per-(capsule, peer)
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
from functools import partial
from typing import Callable, Generator

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
    #: records malformed, or still unattested when their round ended
    records_refused: int = 0
    batches: int = 0
    retries: int = 0
    failures: int = 0
    last_synced: float = field(default=-1.0)


def _reply(server: DataCapsuleServer, sibling, capsule_name, call) -> Generator:
    """Process body: the reply to *call* (``server.request``'s result)
    through ``server.accept_sibling_reply``; None without one."""
    corr_id, future = call
    try:
        yield future
    except GdpError:  # settled without a reply: the opener says so
        pass
    return server.accept_sibling_reply(
        future, corr_id, capsule=capsule_name, sibling=sibling
    )


def _decoded(wires: list, decode: Callable) -> tuple[list, int]:
    """Decode each wire of a reply; returns the objects and how many
    were malformed."""
    decoded, malformed = [], 0
    for wire in wires:
        try:
            decoded.append(decode(wire))
        except GdpError:
            malformed += 1
    return decoded, malformed


def _bisect(
    server: DataCapsuleServer,
    sibling: GdpName,
    capsule,
    common: int,
    timeout: float,
    config: SyncConfig,
    session: SyncSession,
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
            inflight.append((chunk, server.request(
                sibling,
                {
                    "op": "sync_nodes",
                    "capsule": capsule.name.raw,
                    "ranges": [[lo, hi] for lo, hi in chunk],
                },
                timeout=timeout,
            )))
        failed = False
        for chunk, call in inflight:
            body = yield from _reply(server, sibling, capsule.name, call)
            hashes = body.get("hashes", []) if body is not None else None
            if hashes is None or len(hashes) != len(chunk):
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
    session: SyncSession,
) -> Generator:
    """Windowed, size-capped, retried record transfer; returns how many
    records were stored and how many refused (malformed, or held
    unattested until the round ended)."""
    capsule = hosted.capsule
    capsule_name = capsule.name
    pending: deque = deque()
    for start in range(0, len(seqnos), config.batch_records):
        pending.append((seqnos[start:start + config.batch_records], 0))
    inflight: deque = deque()
    fetched = refused = 0
    held: dict[bytes, Record] = {}
    while pending or inflight:
        while pending and len(inflight) < config.window:
            chunk, attempt = pending.popleft()
            call = server.request(
                sibling,
                {
                    "op": "sync_fetch_batch",
                    "capsule": capsule_name.raw,
                    "seqnos": list(chunk),
                    "max_bytes": config.batch_bytes,
                },
                timeout=timeout,
            )
            inflight.append((chunk, attempt, call))
            session.batches += 1
        chunk, attempt, call = inflight.popleft()
        body = yield from _reply(server, sibling, capsule_name, call)
        if body is None:
            if attempt < config.max_retries:
                session.retries += 1
                yield min(
                    config.backoff_base * (2 ** attempt),
                    config.backoff_max,
                )
                pending.append((chunk, attempt + 1))
            else:
                session.failures += 1
            continue
        records, malformed = _decoded(
            body.get("records", []), partial(Record.from_wire, capsule_name)
        )
        heartbeats, _ = _decoded(body.get("heartbeats", []), Heartbeat.from_wire)
        new, new_heartbeats = capsule.admit_fetched(records, heartbeats, held)
        server._store_admitted(hosted, new, new_heartbeats)
        fetched += len(new)
        refused += malformed
        session.heartbeats_fetched += len(new_heartbeats)
        served = set(body.get("served", chunk))
        leftover = [s for s in chunk if s not in served]
        # The server always serves at least one seqno, so a leftover
        # equal to the whole chunk means a misbehaving peer: drop it
        # rather than loop forever.
        if leftover and len(leftover) < len(chunk):
            pending.append((leftover, 0))
    # What no reply of the round attested is dropped (unless a write op
    # stored it meanwhile); the next round's Merkle roots still differ
    # there, so it is fetched again.
    return fetched, refused + sum(1 for digest in held if digest not in capsule)


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
    session = session or SyncSession(capsule=capsule_name, peer=sibling)
    hosted = server.hosted[capsule_name]
    capsule = hosted.capsule
    session.rounds += 1
    body = yield from _reply(server, sibling, capsule_name, server.request(
        sibling,
        {"op": "sync_root", "capsule": capsule_name.raw},
        timeout=timeout,
    ))
    if body is None:
        session.failures += 1
        return 0
    # The tip heartbeat rides on the root reply and is admitted first:
    # the frontier advances even when the record sets already match.
    tip, _ = _decoded(
        [body["heartbeat"]] if "heartbeat" in body else [], Heartbeat.from_wire
    )
    server._store_admitted(hosted, [], capsule.admit_fetched([], tip, {})[1])
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
            node_body = yield from _reply(
                server, sibling, capsule_name, server.request(
                    sibling,
                    {
                        "op": "sync_nodes",
                        "capsule": capsule_name.raw,
                        "ranges": [[1, common]],
                    },
                    timeout=timeout,
                ),
            )
            if node_body is None or len(node_body.get("hashes", [])) != 1:
                session.failures += 1
                return 0
            remote_common_root = node_body["hashes"][0]
        if remote_common_root != capsule.range_root(1, common):
            divergent = yield from _bisect(
                server, sibling, capsule, common, timeout, config, session
            )
            candidates = divergent + candidates
    if not candidates:
        session.last_synced = server.ctx.now
        return 0
    fetched, refused = yield from _fetch_batches(
        server, hosted, sibling, candidates, timeout, config, session
    )
    if refused:
        server.metrics.counter("server.sync.refused").inc(refused)
    session.records_fetched += fetched
    session.records_refused += refused
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

    def session_for(self, capsule_name: GdpName, sibling: GdpName) -> SyncSession:
        """The persistent per-(capsule, peer) session (created lazily)."""
        key = (capsule_name, sibling)
        if key not in self.sessions:
            self.sessions[key] = SyncSession(capsule=capsule_name, peer=sibling)
        return self.sessions[key]

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
