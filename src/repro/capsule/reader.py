"""The verifying reader: trust rooted in the capsule name (§V).

A reader holds nothing but a capsule *name* (and optionally, decryption
keys).  Everything else — metadata, records, heartbeats, proofs — arrives
from untrusted infrastructure and is verified before acceptance:

1. Presented metadata must hash to the name (self-certification).
2. Heartbeats must carry the designated writer's signature.
3. Records must be pinned against a verified heartbeat: a read as a
   range under its range proof (:meth:`accept_range`), a push as a run
   under the heartbeat over its tip (:meth:`accept_run`), each through
   the check half of a replica's admission.  SSW equivocation raises
   :class:`EquivocationError`.
4. Heartbeat sequence numbers must never regress below what this reader
   has already seen (anti-rollback: a stale replica can lag, but a
   *response* claiming an older history than the reader's own frontier
   is rejected — this is the reader-side freshness policy).

A record is trusted because its proof links it to a signed heartbeat,
not because the reader kept a copy: the reader keeps the metadata and
the heartbeats it verified (the frontier, and the per-seqno evidence of
equivocation and branches) and returns records without storing them.
"""

from __future__ import annotations

from repro.capsule.capsule import DataCapsule
from repro.capsule.heartbeat import Heartbeat
from repro.capsule.proofs import PositionProof, RangeProof
from repro.capsule.records import Record
from repro.errors import IntegrityError, SecurityError
from repro.naming.metadata import Metadata
from repro.naming.names import GdpName

__all__ = ["VerifyingReader"]


class VerifyingReader:
    """Verifies capsule data received from untrusted replicas."""

    def __init__(self, name: GdpName):
        self.name = name
        self._capsule: DataCapsule | None = None

    @property
    def capsule(self) -> DataCapsule:
        """The verified metadata and heartbeats, as a record-less
        :class:`DataCapsule` whose check halves accept data."""
        if self._capsule is None:
            raise SecurityError(
                "reader has not yet accepted metadata for this capsule"
            )
        return self._capsule

    @property
    def frontier(self) -> Heartbeat | None:
        """The newest writer heartbeat this reader has verified."""
        return None if self._capsule is None else self._capsule.latest_heartbeat

    def accept_metadata(self, metadata: Metadata) -> DataCapsule:
        """Verify and adopt metadata as the capsule's trust anchor.

        Raises if the metadata does not hash to this reader's name or
        its owner signature is invalid — i.e. if the infrastructure sent
        metadata for the wrong (or a forged) capsule.
        """
        metadata.verify(expected_name=self.name)
        if self._capsule is None:
            self._capsule = DataCapsule(metadata, verify_metadata=False)
        elif self._capsule.metadata != metadata:
            raise IntegrityError("conflicting metadata for the same name")
        return self._capsule

    def check_freshness(self, heartbeat: Heartbeat) -> None:
        """Reject a response anchored on a heartbeat older than this
        reader's frontier (§VI-C: readers "can simply discard stale
        information")."""
        frontier = self.frontier
        if frontier is not None and heartbeat.seqno < frontier.seqno:
            raise IntegrityError(
                f"stale response: anchored at seqno {heartbeat.seqno} but "
                f"reader has already verified seqno {frontier.seqno}"
            )

    def accept_record(self, record: Record, proof: PositionProof) -> Record:
        """Verify a single record against its proof (a one-record
        :meth:`accept_range`)."""
        return self.accept_range(
            [record], RangeProof(proof, record.seqno, record.seqno)
        )[0]

    def accept_range(self, records: list[Record], proof: RangeProof) -> list[Record]:
        """Verify a contiguous range against its proof; returns the
        records, keeping only the proof's heartbeat."""
        self.capsule.verify_range(records, proof)
        return records

    def accept_run(self, records: list[Record], heartbeat: Heartbeat) -> None:
        """Verify a pushed run under the heartbeat over its tip, with
        the checks a replica admits it under; keeps only the heartbeat."""
        self.capsule.verify_run(records, heartbeat)
