"""DataCapsule records: immutable, variable-sized, hash-linked (§V-A).

A record is identified by its *digest*, which commits to the capsule
name, the record's sequence number, its payload, and every hash-pointer
it carries.  Because pointers transitively cover their targets, any
record digest attests the full history reachable from it; a signed
heartbeat over the newest record therefore attests "the entire history
of updates (both the content and the ordering)" (§V).

Sequence numbers start at 1; the metadata record is conceptually
sequence 0 and is referenced by the well-known metadata anchor pointer
carried by record 1.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.crypto.hashing import HashPointer, hash_value, sha256
from repro.errors import IntegrityError, expect_bytes
from repro.naming.names import GdpName

__all__ = ["Record", "metadata_anchor"]


def metadata_anchor(capsule_name: GdpName) -> HashPointer:
    """The pointer from record 1 back to the metadata "record".

    The metadata's digest *is* derived from the capsule name, so the
    anchor binds the chain to the capsule identity: seqno 0 with a digest
    of ``H("gdp.anchor", name)``.
    """
    return HashPointer(0, hash_value("gdp.anchor", capsule_name.raw))


class Record:
    """One immutable element of a DataCapsule's history.

    Immutability makes every derived value cacheable: the payload hash,
    the pointer wire forms, and the header digest are each computed once
    at construction (invalidation is impossible by construction), so
    replication merges, proof builds, and storage replay never re-encode
    or re-hash the same record.  A replica holds only :meth:`header`.
    """

    __slots__ = (
        "capsule",
        "seqno",
        "payload",
        "size",
        "pointers",
        "_digest",
        "_payload_hash",
        "_pointers_wire",
    )

    def __init__(
        self,
        capsule: GdpName,
        seqno: int,
        payload: bytes,
        pointers: Sequence[HashPointer],
    ):
        if seqno < 1:
            raise ValueError(f"record seqno must be >= 1, got {seqno}")
        if not pointers:
            raise ValueError("a record must carry at least one hash pointer")
        ordered = sorted(pointers, key=lambda p: p.seqno, reverse=True)
        for ptr in ordered:
            if ptr.seqno >= seqno:
                raise ValueError(
                    f"pointer to seqno {ptr.seqno} from record {seqno} "
                    "must reference the past"
                )
        seen = {ptr.seqno for ptr in ordered}
        if len(seen) != len(ordered):
            raise ValueError("duplicate pointer target seqnos")
        object.__setattr__(self, "capsule", capsule)
        object.__setattr__(self, "seqno", seqno)
        payload = expect_bytes(payload, "record payload", IntegrityError)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "size", len(payload))
        object.__setattr__(self, "pointers", tuple(ordered))
        object.__setattr__(self, "_payload_hash", sha256(self.payload))
        object.__setattr__(
            self,
            "_pointers_wire",
            tuple(tuple(ptr.to_wire()) for ptr in self.pointers),
        )
        object.__setattr__(self, "_digest", self._compute_digest())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Record is immutable")

    def _compute_digest(self) -> bytes:
        from repro.crypto import cache as crypto_cache

        return crypto_cache.record_digest(
            self.capsule.raw,
            self.seqno,
            self._payload_hash,
            [list(w) for w in self._pointers_wire],
        )

    @property
    def digest(self) -> bytes:
        """The record's identifying SHA-256 digest."""
        return self._digest

    @property
    def payload_hash(self) -> bytes:
        """SHA-256 of the payload alone (cached at construction)."""
        return self._payload_hash

    @property
    def prev(self) -> HashPointer:
        """The pointer with the highest target seqno (the chain
        predecessor in SSW mode)."""
        return self.pointers[0]

    def pointer_to(self, seqno: int) -> HashPointer | None:
        """The pointer targeting *seqno*, if this record carries one."""
        for ptr in self.pointers:
            if ptr.seqno == seqno:
                return ptr
        return None

    def header(self) -> "Record":
        """This record with ``payload`` None (``size`` keeps its length)."""
        header = object.__new__(Record)
        set_slot = object.__setattr__
        for slot in _HEADER_SLOTS:
            set_slot(header, slot, getattr(self, slot))
        set_slot(header, "payload", None)
        return header

    def matches(self, wire: Any) -> bool:
        """Whether *wire* has this record's seqno, pointers and payload
        hash: a payload read back from a log is checked so, unrebuilt."""
        try:
            return (wire["seqno"], wire["pointers"], sha256(wire["payload"])) == (
                self.seqno, [list(w) for w in self._pointers_wire], self._payload_hash
            )
        except (KeyError, TypeError):
            return False

    def header_wire(self) -> dict:
        """The record minus its payload — what integrity proofs ship.

        Proofs carry ``payload_hash`` instead of the payload so proving a
        record's position never requires shipping megabytes of video.
        """
        return {
            "seqno": self.seqno,
            "payload_hash": self._payload_hash,
            "pointers": [list(w) for w in self._pointers_wire],
        }

    def to_wire(self) -> dict:
        """Wire-encodable representation.

        Fresh outer dict and pointer lists every call (callers may
        mutate them), but built from the cached wire tuples, so no
        pointer re-encoding happens.
        """
        return {
            "seqno": self.seqno,
            "payload": self.payload,
            "pointers": [list(w) for w in self._pointers_wire],
        }

    @classmethod
    def from_wire(cls, capsule: GdpName, wire: dict) -> "Record":
        """Rebuild from a wire form; raises on malformed input."""
        try:
            pointers = [HashPointer.from_wire(p) for p in wire["pointers"]]
            return cls(capsule, wire["seqno"], wire["payload"], pointers)
        except (KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(f"malformed record wire form: {exc}") from exc

    @staticmethod
    def verify_header(
        capsule: GdpName, header: dict, expected_digest: bytes
    ) -> None:
        """Check that a proof header hashes to *expected_digest*."""
        from repro.crypto import cache as crypto_cache

        try:
            recomputed = crypto_cache.record_digest(
                capsule.raw,
                header["seqno"],
                header["payload_hash"],
                header["pointers"],
            )
        except (KeyError, TypeError) as exc:
            raise IntegrityError(f"malformed record header: {exc}") from exc
        if recomputed != expected_digest:
            raise IntegrityError(
                f"record header for seqno {header.get('seqno')} does not "
                "match its claimed digest"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self._digest == other._digest

    def __hash__(self) -> int:
        return hash(self._digest)

    def __repr__(self) -> str:
        return (
            f"Record(seqno={self.seqno}, payload={self.size}B, "
            f"ptrs={[p.seqno for p in self.pointers]}, "
            f"digest={self._digest.hex()[:12]}...)"
        )


_HEADER_SLOTS = tuple(slot for slot in Record.__slots__ if slot != "payload")

