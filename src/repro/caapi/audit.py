"""Merkle-audited log CAAPI: O(log n) membership proofs from summaries.

§V notes that "a reader can also get cryptographic proofs for specific
records from a DataCapsule in a similar way as the well-known Merkle
hash trees".  This CAAPI makes that concrete by composing the two proof
systems the library already has:

- every K data records, the writer appends a **summary record** whose
  payload is the Merkle root over all data-record payload hashes so far;
- an auditor verifies record *i* with
  (a) one capsule **position proof** pinning the *summary* record
      (O(log n) hops under the skip-list strategy), plus
  (b) one Merkle **inclusion proof** of record *i*'s payload under the
      summary's root (O(log n) siblings)

— total O(log n) verification data for any record, against nothing but
the capsule name, without fetching the intervening records at all.

Layout: data records and summary records interleave in one capsule.
Data record *i* (1-based among data records) sits at capsule seqno
``i + (i - 1) // K``; summary *s* covers data records ``1..s*K``.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro import encoding
from repro.caapi.base import CapsuleApp
from repro.client.client import GdpClient
from repro.client.owner import OwnerConsole
from repro.crypto.keys import SigningKey
from repro.crypto.merkle import MerkleTree
from repro.errors import CapsuleError, IntegrityError
from repro.naming.metadata import Metadata
from repro.naming.names import GdpName

__all__ = ["AuditedLog", "AuditProof"]

_SUMMARY_PREFIX = b"gdp.audit.summary\x00"


class AuditProof:
    """Everything an auditor needs to verify one audited entry."""

    __slots__ = ("entry_index", "payload", "summary_record",
                 "position_proof", "inclusion_proof")

    def __init__(self, entry_index, payload, summary_record,
                 position_proof, inclusion_proof):
        self.entry_index = entry_index
        self.payload = payload
        self.summary_record = summary_record
        self.position_proof = position_proof
        self.inclusion_proof = inclusion_proof

    def verify(self, capsule_name: GdpName, writer_key) -> None:
        """Raise unless the payload is entry *entry_index* of the
        audited history committed by the (capsule-proof-pinned)
        summary."""
        # (a) the summary record really is part of the capsule history.
        self.position_proof.verify_record(self.summary_record, writer_key)
        summary = _parse_summary(self.summary_record.payload)
        if summary is None:
            raise IntegrityError("pinned record is not a summary")
        if not 1 <= self.entry_index <= summary["count"]:
            raise IntegrityError("entry index outside the summary's range")
        # The inclusion proof must be for the *claimed* slot: the proof
        # object carries its own leaf index, which must agree.
        if self.inclusion_proof.index != self.entry_index - 1:
            raise IntegrityError(
                "inclusion proof is for a different entry index"
            )
        if self.inclusion_proof.tree_size != summary["count"]:
            raise IntegrityError(
                "inclusion proof tree size disagrees with the summary"
            )
        # (b) the payload is under the summary's Merkle root.
        from repro.crypto.hashing import sha256

        self.inclusion_proof.verify(sha256(self.payload), summary["root"])


def _parse_summary(payload: bytes) -> dict | None:
    """Decode a summary record payload, or None for data records."""
    if not payload.startswith(_SUMMARY_PREFIX):
        return None
    wire = encoding.decode(payload[len(_SUMMARY_PREFIX):])
    return {"count": wire["count"], "root": wire["root"]}


class AuditedLog(CapsuleApp):
    """An append-only log with periodic Merkle summaries.

    Skip-list pointers so summary records are O(log n) to pin."""

    CAAPI_KIND = "audit"
    CAAPI_LABEL = "caapi.audit"
    WRITER_SEED = b"auditwriter:"

    def __init__(
        self,
        client: GdpClient,
        console: OwnerConsole,
        server_metadatas: Sequence[Metadata],
        *,
        writer_key: SigningKey | None = None,
        summary_interval: int = 16,
        scopes: Sequence[str] = (),
        acks: str = "any",
    ):
        if summary_interval < 2:
            raise CapsuleError("summary_interval must be >= 2")
        super().__init__(
            client,
            console,
            server_metadatas,
            writer_key=writer_key,
            scopes=scopes,
            acks=acks,
        )
        self.summary_interval = summary_interval
        self._tree = MerkleTree()  # payload hashes of data records
        self._entries = 0

    def _pointer_strategy(self) -> str:
        return "skiplist"

    def _design_extra(self) -> dict:
        return {"summary_interval": self.summary_interval}

    # -- writer side -----------------------------------------------------

    def append(self, payload: bytes) -> Generator:
        """Append one entry; a summary follows automatically every
        *summary_interval* entries.  Returns the entry index."""
        if self._writer is None:
            raise CapsuleError("log not created yet")
        from repro.crypto.hashing import sha256

        yield from self._writer.append(payload)
        self._tree.append(sha256(payload))
        self._entries += 1
        if self._entries % self.summary_interval == 0:
            summary = _SUMMARY_PREFIX + encoding.encode(
                {"count": self._entries, "root": self._tree.root()}
            )
            yield from self._writer.append(summary)
        return self._entries

    # -- auditor side -------------------------------------------------------

    @staticmethod
    def data_seqno(entry_index: int, interval: int) -> int:
        """Capsule seqno of data entry *entry_index* (summaries
        interleave every *interval* data records)."""
        return entry_index + (entry_index - 1) // interval

    @staticmethod
    def summary_seqno(summary_index: int, interval: int) -> int:
        """Capsule seqno of the *summary_index*-th summary record."""
        return summary_index * (interval + 1)

    def audit_entry(self, entry_index: int) -> Generator:
        """Build an :class:`AuditProof` for one entry, fetching only the
        entry itself, the covering summary record, and O(log n) proof
        data — never the records in between.

        This is the *prover* side (run by whoever holds the Merkle tree
        — the writer, or any replica that rebuilt it).  The resulting
        bundle is self-contained: a third-party auditor verifies it with
        :meth:`AuditProof.verify` holding nothing but the capsule name
        and metadata, so a hostile prover gains nothing.
        """
        interval = self.summary_interval
        summary_index = (entry_index + interval - 1) // interval
        covered = summary_index * interval
        if covered > self._entries:
            raise CapsuleError(
                f"entry {entry_index} is not covered by a summary yet"
            )
        entry = yield from self.client.read(
            self.name, self.data_seqno(entry_index, interval)
        )
        # The summary's read keeps the position proof its range proof
        # carries, which pins the summary in the capsule history.
        summary = yield from self.client.read(
            self.name, self.summary_seqno(summary_index, interval)
        )
        inclusion_proof = self._tree.prove(entry_index - 1, size=covered)
        return AuditProof(
            entry_index,
            entry.record.payload,
            summary.record,
            summary.proof.position,
            inclusion_proof,
        )
