"""The DataCapsule authenticated data structure (§IV-A, §V-A).

A :class:`DataCapsule` is the in-memory representation of one capsule's
state: its signed metadata, its records (keyed by digest — in QSW mode a
sequence number can map to more than one record), and the writer
heartbeats seen so far.  It holds each record as its header
(:meth:`Record.header`: no payload), so :meth:`get`, :meth:`records` and
the other reads return headers; every check and proof here needs no
more, and a DataCapsule-server reads payloads back from its log
(``bulk_transfer`` peak RSS 278 → 64 MiB on a 2-vCPU VM).  It performs
the *generalized validation scheme*:
every admitted record is checked against the capsule name, the declared
pointer strategy's shape, and the digests of any already-known pointer
targets; heartbeats are checked against the single writer's key from the
metadata.  A record enters any capsule only when one rule attests it (a
verified heartbeat, or a hash pointer from an attested record): written
runs (:func:`run_wire`) through :meth:`DataCapsule.admit`, all or
nothing; fetched records — sync, log replay, the join — through
:meth:`DataCapsule.admit_fetched`.  A client's reader keeps one with no
records and accepts data through the check halves, :meth:`verify_range`
(a read under its range proof) and :meth:`verify_run` (a pushed run).
The state is a CRDT with :meth:`merge_from` as the join (§V-A: "a
DataCapsule meets the definition of a Conflict-Free Replicated Data
Type"): the union of attested record sets, idempotent and
order-independent, so "append operations ... can be easily forwarded as
is to all the DataCapsule-servers in arbitrary order".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.capsule.hashptr import PointerStrategy, get_strategy
from repro.crypto.merkle import MerkleTree
from repro.capsule.heartbeat import Heartbeat, detect_equivocation
from repro.capsule.records import Record, metadata_anchor
from repro.crypto.hashing import HashPointer
from repro.errors import (
    BranchError,
    GdpError,
    HoleError,
    IntegrityError,
    RecordNotFoundError,
)
from repro.naming.metadata import (
    KIND_CAPSULE,
    MODE_SSW,
    PROP_POINTER_STRATEGY,
    PROP_WRITER_MODE,
    Metadata,
)
from repro.naming.names import GdpName

if TYPE_CHECKING:  # proofs and the writer build on this module
    from repro.capsule.proofs import RangeProof
    from repro.capsule.writer import CapsuleWriter

__all__ = ["DataCapsule"]

#: sync-index leaf for a seqno this replica has no record at — holes must
#: hash identically on both sides so anti-entropy never "diverges" on them
_SYNC_HOLE_LEAF = b"\x00gdp.sync.hole"

#: the other records of a one-record run (none; shared, never mutated)
_NO_RUN: dict = {}


class DataCapsule:
    """One capsule's validated state (records + heartbeats)."""

    def __init__(self, metadata: Metadata, *, verify_metadata: bool = True):
        if metadata.kind != KIND_CAPSULE:
            raise IntegrityError(
                f"metadata kind {metadata.kind!r} is not a capsule"
            )
        if verify_metadata:
            metadata.verify()
        self.metadata = metadata
        self.name: GdpName = metadata.name
        self.strategy: PointerStrategy = get_strategy(
            metadata.properties[PROP_POINTER_STRATEGY]
        )
        self.writer_mode: str = metadata.properties.get(
            PROP_WRITER_MODE, MODE_SSW
        )
        self._writer_key = metadata.writer_key
        self._anchor = metadata_anchor(self.name)
        self._by_digest: dict[bytes, Record] = {}
        self._by_seqno: dict[int, list[bytes]] = {}
        self._heartbeats: dict[int, list[Heartbeat]] = {}
        self._latest_heartbeat: Heartbeat | None = None
        # Merkle sync-index caches (see sync_leaf / range_root).
        self._sync_leaf_cache: dict[int, bytes] = {}
        self._range_root_cache: dict[tuple[int, int], bytes] = {}

    # -- introspection ------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_digest)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._by_digest

    @property
    def writer_key(self):
        """The designated single writer's verifying key."""
        return self._writer_key

    @property
    def last_seqno(self) -> int:
        """Highest seqno of any stored record (0 if empty)."""
        return max(self._by_seqno, default=0)

    @property
    def latest_heartbeat(self) -> Heartbeat | None:
        """The newest stored heartbeat (or None)."""
        return self._latest_heartbeat

    def records(self) -> Iterator[Record]:
        """All records in (seqno, digest) order."""
        for seqno in sorted(self._by_seqno):
            for digest in sorted(self._by_seqno[seqno]):
                yield self._by_digest[digest]

    def heartbeats(self) -> Iterator[Heartbeat]:
        """All stored heartbeats in seqno order."""
        for seqno in sorted(self._heartbeats):
            yield from self._heartbeats[seqno]

    def heartbeats_at(self, seqno: int) -> list[Heartbeat]:
        """The stored heartbeats for one seqno (empty list if none)."""
        return list(self._heartbeats.get(seqno, []))

    def seqnos(self) -> list[int]:
        """Sorted list of stored sequence numbers."""
        return sorted(self._by_seqno)

    def is_branched(self) -> bool:
        """True if any seqno has more than one record (QSW branches)."""
        return any(len(digests) > 1 for digests in self._by_seqno.values())

    def holes(self) -> list[int]:
        """Seqnos missing below :attr:`last_seqno` (§VI-B "holes")."""
        if not self._by_seqno:
            return []
        return [
            seqno
            for seqno in range(1, self.last_seqno)
            if seqno not in self._by_seqno
        ]

    def tips(self) -> list[Record]:
        """Records not pointed to by any stored record — the heads of the
        history DAG (exactly one in linear SSW state)."""
        pointed: set[bytes] = set()
        for record in self._by_digest.values():
            for ptr in record.pointers:
                pointed.add(ptr.digest)
        return sorted(
            (r for d, r in self._by_digest.items() if d not in pointed),
            key=lambda r: (r.seqno, r.digest),
        )

    # -- reads ---------------------------------------------------------

    def get(self, seqno: int) -> Record:
        """The unique record at *seqno*; raises
        :class:`RecordNotFoundError` if absent and :class:`BranchError`
        if the capsule has diverging records there."""
        digests = self._by_seqno.get(seqno)
        if not digests:
            raise RecordNotFoundError(
                f"capsule {self.name.human()} has no record {seqno}"
            )
        if len(digests) > 1:
            raise BranchError(
                f"seqno {seqno} is branched ({len(digests)} records); "
                "use get_all() / branches API"
            )
        return self._by_digest[digests[0]]

    def get_all(self, seqno: int) -> list[Record]:
        """All records at *seqno* (more than one only under QSW)."""
        return [self._by_digest[d] for d in self._by_seqno.get(seqno, [])]

    def get_by_digest(self, digest: bytes) -> Record:
        """The record with *digest*; raises if absent."""
        try:
            return self._by_digest[digest]
        except KeyError:
            raise RecordNotFoundError(
                f"no record with digest {digest.hex()[:12]}..."
            ) from None

    def read_range(self, first: int, last: int) -> list[Record]:
        """Records ``first..last`` inclusive — at the newest heartbeat's
        seqno the record it signs, so a QSW branch there is no error.
        Raises :class:`RecordNotFoundError` for a range past the tip and
        :class:`HoleError`, counting them, if records are missing."""
        if first < 1 or last < first:
            raise RecordNotFoundError(f"bad range [{first}, {last}]")
        if last not in self._by_seqno and last > self.last_seqno:
            raise RecordNotFoundError(
                f"range [{first}, {last}] is past the tip {self.last_seqno}"
            )
        missing = [s for s in range(first, last + 1) if s not in self._by_seqno]
        if missing:
            raise HoleError(
                f"range [{first}, {last}] has holes: {len(missing)} "
                f"missing, the first at {missing[0]}"
            )
        newest = self._latest_heartbeat
        return [
            self.get_by_digest(newest.digest)
            if newest is not None and seqno == newest.seqno
            else self.get(seqno)
            for seqno in range(first, last + 1)
        ]

    # -- writes ----------------------------------------------------------

    def _check_record(self, record: Record, run: dict = _NO_RUN) -> None:
        """The checks every way in runs: capsule, strategy shape, links
        (against stored records and the rest of *run*).  A pointer to an
        unknown digest is allowed — replication can deliver records out
        of order (§V-A) — and one to a seqno stored here under another
        digest is a fork: stored as a branch, blamed from heartbeats."""
        if record.capsule != self.name:
            raise IntegrityError(
                f"record for capsule {record.capsule.human()} admitted "
                f"into {self.name.human()}"
            )
        expected = self.strategy.targets(record.seqno)
        actual = [ptr.seqno for ptr in record.pointers]
        if actual != expected:
            raise IntegrityError(
                f"record {record.seqno} pointer targets {actual} do not "
                f"match strategy {self.strategy.spec!r} (expected {expected})"
            )
        for ptr in record.pointers:
            if ptr.seqno == 0:
                if ptr != self._anchor:
                    raise IntegrityError(
                        f"record {record.seqno} anchor pointer does not "
                        "match this capsule's metadata anchor"
                    )
                continue
            known = self._by_digest.get(ptr.digest) or run.get(ptr.digest)
            if known is not None and known.seqno != ptr.seqno:
                raise IntegrityError(
                    f"pointer from record {record.seqno} claims seqno "
                    f"{ptr.seqno} but digest belongs to {known.seqno}"
                )

    def _check_run(self, records: list[Record]) -> dict:
        """Check every record of a run; returns the run by digest."""
        run = {record.digest: record for record in records}
        for record in records:
            self._check_record(record, run)
        return run

    def _store(self, record: Record) -> bool:
        """File the record's :meth:`~Record.header`: a replica holds no
        payload (its server reads payloads back from its own log)."""
        if record.digest in self._by_digest:
            return False
        self._by_digest[record.digest] = record.header()
        self._by_seqno.setdefault(record.seqno, []).append(record.digest)
        self._sync_leaf_cache.pop(record.seqno, None)
        self._range_root_cache.clear()
        return True

    def admit(
        self, records: list[Record], heartbeat: Heartbeat
    ) -> tuple[list[Record], bool]:
        """Admit a run under the heartbeat over its last record (the tip),
        all or nothing: :meth:`verify_run`, then store.  Returns ``(new
        records, heartbeat was new)``."""
        heartbeat_new = self.verify_run(records, heartbeat)
        return [record for record in records if self._store(record)], heartbeat_new

    def verify_run(self, records: list[Record], heartbeat: Heartbeat) -> bool:
        """:meth:`admit`'s check half: each record's capsule, strategy
        shape and links; every record attested (:meth:`_attest`) from the
        tip; then the heartbeat's signature, tip binding and equivocation.
        Raises on a failure; keeps the heartbeat, stores no record."""
        tip = records[-1]
        run = self._check_run(records)
        # attestation consumes the run: what is left is unattested
        self._attest(run, [tip])
        self._attest(run, [r for r in run.values() if self._anchored(r)])
        if run:
            unattested = max(run.values(), key=lambda r: r.seqno)
            raise IntegrityError(
                f"record {unattested.seqno} is not attested by the "
                f"heartbeat over record {tip.seqno}"
            )
        # add_heartbeat raises before it stores; nothing after it can fail
        return self.add_heartbeat(heartbeat, matching_record=tip)

    def admit_fetched(
        self,
        records: list[Record],
        heartbeats: list[Heartbeat],
        held: dict[bytes, Record],
    ) -> tuple[list[Record], list[Heartbeat]]:
        """Admit what anti-entropy fetched — the sync round's way in.
        Each heartbeat that verifies is stored first; then each record
        :meth:`_attest` attests and its checks pass, fetched now or
        waiting in *held* (the caller's, for one round), where the rest
        are left.  Returns ``(new records, new heartbeats)``."""
        new_heartbeats = []
        for heartbeat in heartbeats:
            try:
                if self.add_heartbeat(heartbeat):
                    new_heartbeats.append(heartbeat)
            except GdpError:
                continue  # a heartbeat that fails verification attests nothing
        offered = [r for r in records if r.digest not in self._by_digest]
        held.update((record.digest, record) for record in offered)
        anchored = [r for r in offered if self._anchored(r)]
        anchored += [held[h.digest] for h in new_heartbeats if h.digest in held]
        new = []  # in seqno order: links are checked against what is stored
        for record in sorted(self._attest(held, anchored), key=lambda r: r.seqno):
            try:
                self._check_record(record)
            except IntegrityError:
                held[record.digest] = record  # attested, but refused
                continue
            if self._store(record):
                new.append(record)
        return new, new_heartbeats

    def verify_range(self, records: list[Record], proof: RangeProof) -> None:
        """Check a read — how a reader accepts a range: the proof's
        heartbeat attests the last record through its header chain, each
        record its predecessor; then :meth:`verify_run`'s record checks.
        Raises on a failure; keeps the heartbeat, stores no record."""
        proof.verify_records(records, self._writer_key)
        self._check_run(records)
        self.add_heartbeat(proof.position.heartbeat)

    def _attest(self, held: dict[bytes, Record], seeds: list[Record]) -> list[Record]:
        """The attestation rule, the one test for what a replica may
        store: a record is attested when its digest is a verified
        heartbeat's digest, or a hash pointer of an attested record —
        of the same run, or already stored (so every stored record is
        attested, by induction).  Moves out of *held* and returns the
        *seeds*, records known attested (the tip under a write op's
        heartbeat, or ones :meth:`_anchored` in stored state), and every
        held record they reach by hash pointers."""
        reached = []
        frontier = list(seeds)
        for record in frontier:  # grows while it is walked: breadth first
            if held.pop(record.digest, None) is None:
                continue
            reached.append(record)
            frontier.extend(
                held[ptr.digest] for ptr in record.pointers if ptr.digest in held
            )
        return reached

    def _anchored(self, record: Record) -> bool:
        """Whether stored state attests *record*: a stored heartbeat over
        it, or a pointer from a stored record at the next seqno (every
        strategy points at the predecessor, so nothing is scanned)."""
        beats = self._heartbeats.get(record.seqno, ())
        if any(h.digest == record.digest for h in beats):
            return True
        return any(
            ptr.digest == record.digest
            for digest in self._by_seqno.get(record.seqno + 1, ())
            for ptr in self._by_digest[digest].pointers
        )

    def add_heartbeat(
        self, heartbeat: Heartbeat, *, matching_record: Record | None = None
    ) -> bool:
        """Validate and store a heartbeat (idempotent); returns ``True``
        if new.  Checks the writer signature, capsule binding, and —
        when the record is available — that it signs that record; on a
        failed check nothing is stored."""
        if heartbeat.capsule != self.name:
            raise IntegrityError("heartbeat is for a different capsule")
        heartbeat.verify(self._writer_key)
        if matching_record is not None and (
            heartbeat.digest != matching_record.digest
            or heartbeat.seqno != matching_record.seqno
        ):
            raise IntegrityError(
                f"heartbeat digest does not match record {matching_record.seqno}"
            )
        existing = self._heartbeats.setdefault(heartbeat.seqno, [])
        if heartbeat in existing:
            return False
        # Surface writer equivocation in SSW capsules: two valid
        # heartbeats for one seqno with different digests.  QSW capsules
        # declare up front that concurrent writers can (rarely) happen,
        # so the same evidence is a branch there, not misbehaviour.
        if self.writer_mode == MODE_SSW:
            for other in existing:
                detect_equivocation(other, heartbeat, self._writer_key)
        existing.append(heartbeat)
        if (
            self._latest_heartbeat is None
            or heartbeat.seqno > self._latest_heartbeat.seqno
        ):
            self._latest_heartbeat = heartbeat
        return True

    # -- whole-history verification & replication -------------------------

    def verify_history(self, up_to: Heartbeat | None = None) -> int:
        """Walk the hash-pointer graph from a heartbeat down to the
        anchor, checking every link; returns the number of records
        covered.  Raises :class:`HoleError` if the walk needs a missing
        record (unless the strategy tolerates holes and a bridging
        pointer exists), :class:`IntegrityError` on any digest mismatch.

        This is the §V "verify the entire history of DataCapsule up to a
        specific point in time against a specific heartbeat".
        """
        heartbeat = up_to or self._latest_heartbeat
        if heartbeat is None:
            return 0
        heartbeat.verify(self._writer_key)
        start = self._by_digest.get(heartbeat.digest)
        if start is None:
            raise HoleError(
                f"record for heartbeat seqno {heartbeat.seqno} is missing"
            )
        if start.digest != heartbeat.digest:
            # A record filed under the heartbeat's digest whose contents
            # hash elsewhere: in-place storage tampering.
            raise IntegrityError(
                f"record {start.seqno} does not hash to its "
                "heartbeat digest"
            )
        covered: set[bytes] = set()
        frontier = [start]
        reached_anchor = False
        while frontier:
            record = frontier.pop()
            if record.digest in covered:
                continue
            covered.add(record.digest)
            for ptr in record.pointers:
                if ptr.seqno == 0:
                    if ptr != self._anchor:
                        raise IntegrityError("bad metadata anchor pointer")
                    reached_anchor = True
                    continue
                target = self._by_digest.get(ptr.digest)
                if target is None:
                    if self.strategy.tolerates_holes:
                        continue
                    raise HoleError(
                        f"history has a hole: record {ptr.seqno} "
                        f"(digest {ptr.digest.hex()[:12]}...) is missing"
                    )
                if target.seqno != ptr.seqno:
                    raise IntegrityError("pointer seqno/digest mismatch")
                if target.digest != ptr.digest:
                    raise IntegrityError(
                        f"record {target.seqno} does not hash to the "
                        "pointer that reaches it"
                    )
                frontier.append(target)
        if not reached_anchor:
            raise HoleError("history walk never reached the metadata anchor")
        return len(covered)

    def merge_from(self, other: "DataCapsule") -> int:
        """CRDT join: absorb what of *other* (a replica of the same
        capsule) the attestation rule admits; returns the number of new
        records.  Commutative, associative, and idempotent — the
        substance of leaderless replication (§V-A).  A heartbeat that
        fails :meth:`add_heartbeat` (an SSW equivocation included) is
        skipped, not raised."""
        if other.name != self.name:
            raise IntegrityError("cannot merge replicas of different capsules")
        new, _ = self.admit_fetched(
            list(other.records()), list(other.heartbeats()), {}
        )
        return len(new)

    def clone(self) -> "DataCapsule":
        """An independent replica holding what :meth:`merge_from` admits
        of this one: every heartbeat, and every attested record."""
        replica = DataCapsule(self.metadata, verify_metadata=False)
        replica.merge_from(self)
        return replica

    def state_summary(self) -> dict:
        """Which seqnos (and digests) this replica holds."""
        return {
            "last_seqno": self.last_seqno,
            "digests": {
                str(seqno): sorted(digests)
                for seqno, digests in self._by_seqno.items()
            },
        }

    def canonical_summary(self) -> tuple:
        """Hashable, order-canonical record-set summary — two replicas
        hold the same record set iff their canonical summaries are equal
        (used by the convergence oracle and the episode heal poll)."""
        return tuple(
            (seqno, tuple(sorted(self._by_seqno[seqno])))
            for seqno in sorted(self._by_seqno)
        )

    # -- Merkle sync index (delta anti-entropy, §V-A at scale) -------------

    def sync_leaf(self, seqno: int) -> bytes:
        """The sync-index leaf for *seqno*: the concatenation of the
        sorted record digests stored there, or a fixed hole marker.

        Leaves feed :meth:`range_root`; holes hash identically on every
        replica, so two replicas missing the *same* records agree and
        anti-entropy transfers nothing for them.
        """
        cached = self._sync_leaf_cache.get(seqno)
        if cached is None:
            digests = self._by_seqno.get(seqno)
            cached = b"".join(sorted(digests)) if digests else _SYNC_HOLE_LEAF
            self._sync_leaf_cache[seqno] = cached
        return cached

    def range_root(self, lo: int, hi: int) -> bytes:
        """Merkle root over the sync leaves of seqnos ``lo..hi``
        (inclusive).  O(span) to build, cached until the next insert —
        anti-entropy peers compare these instead of full seqno->digest
        maps, and bisect on mismatch (O(log n) round trips)."""
        if lo < 1 or hi < lo:
            raise IntegrityError(f"bad sync range [{lo}, {hi}]")
        key = (lo, hi)
        cached = self._range_root_cache.get(key)
        if cached is None:
            tree = MerkleTree(self.sync_leaf(s) for s in range(lo, hi + 1))
            cached = tree.root()
            self._range_root_cache[key] = cached
        return cached

    def __repr__(self) -> str:
        return (
            f"DataCapsule(name={self.name.human()}, records={len(self)}, "
            f"last={self.last_seqno}, strategy={self.strategy.spec})"
        )


def run_wire(records: list[Record], heartbeat: Heartbeat) -> dict:
    """The one shape a write travels in — ``append_batch``,
    ``replicate_batch`` and a push to subscribers all carry it: a run of
    records and the writer's heartbeat over the last one (the tip)."""
    return {
        "capsule": heartbeat.capsule.raw,
        "records": [record.to_wire() for record in records],
        "heartbeat": heartbeat.to_wire(),
    }


def run_from_wire(capsule: GdpName, body: Any) -> tuple[list[Record], Heartbeat]:
    """Parse a run for *capsule* (admitting it is :meth:`DataCapsule.admit`'s
    job); raises :class:`IntegrityError` on any malformed body."""
    try:
        wires, heartbeat = body["records"], body["heartbeat"]
    except (KeyError, TypeError) as exc:
        raise IntegrityError(f"malformed run: {exc!r}") from exc
    if not isinstance(wires, list) or not wires:
        raise IntegrityError("a run carries a non-empty list of records")
    records = [Record.from_wire(capsule, wire) for wire in wires]
    return records, Heartbeat.from_wire(heartbeat)


def build_record(
    capsule: "DataCapsule | CapsuleWriter",
    seqno: int,
    payload: bytes,
    digest_of: dict[int, bytes],
) -> Record:
    """Construct the unique strategy-conformant record for *seqno* of
    *capsule* (its ``name`` and ``strategy``: a replica or a writer).

    ``digest_of`` must supply digests for every strategy target (the
    metadata anchor is filled in automatically).  Used by writers and by
    tests that need hand-built histories.
    """
    pointers = []
    for target in capsule.strategy.targets(seqno):
        if target == 0:
            pointers.append(metadata_anchor(capsule.name))
        else:
            try:
                pointers.append(HashPointer(target, digest_of[target]))
            except KeyError:
                raise HoleError(
                    f"record {seqno} needs the digest of record {target}, "
                    "which is not available"
                ) from None
    return Record(capsule.name, seqno, payload, pointers)
