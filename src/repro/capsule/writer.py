"""Capsule writers: strict and quasi single-writer modes (§V-A, §VI-C).

The single writer is the system's only point of serialization: it decides
what goes into the capsule and in what order, signs a heartbeat per
append, and keeps just enough local state to mint the next record — "at
the very least ... the hash of the most recent record (potentially in
non-volatile memory to recover after writer failures), and any additional
hashes the writer might need in near future".

:class:`WriterState` is that local state, with optional file persistence
standing in for the paper's non-volatile memory; a writer holds no
replica, and every replica admits the runs it returns.
:class:`CapsuleWriter` (SSW) refuses to proceed without its state —
losing it is exactly the failure QSW exists for.  :class:`QuasiWriter`
(QSW) can *resume from a replica tip* (and the records its strategy
still needs); if the lost state had unreplicated appends, the resume
creates a branch, which readers observe via the branches API and
resolve with strong-eventual-consistency semantics (§VI-C).
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

from repro import encoding
from repro.capsule.capsule import build_record
from repro.capsule.hashptr import PointerStrategy, get_strategy
from repro.capsule.heartbeat import Heartbeat
from repro.capsule.records import Record
from repro.crypto.keys import SigningKey
from repro.errors import EncodingError, WriterStateError
from repro.naming.metadata import PROP_POINTER_STRATEGY, Metadata
from repro.naming.names import GdpName

__all__ = ["WriterState", "CapsuleWriter", "QuasiWriter"]


class WriterState:
    """The writer's durable local state: last seqno, logical clock, and
    the digests of past records still reachable by future pointers."""

    def __init__(
        self,
        capsule: GdpName,
        last_seqno: int = 0,
        timestamp: int = 0,
        digests: dict[int, bytes] | None = None,
    ):
        self.capsule = capsule
        self.last_seqno = last_seqno
        self.timestamp = timestamp
        self.digests: dict[int, bytes] = dict(digests or {})

    def to_bytes(self) -> bytes:
        """Serialized byte form."""
        return encoding.encode(
            {
                "capsule": self.capsule.raw,
                "last_seqno": self.last_seqno,
                "timestamp": self.timestamp,
                "digests": {str(k): v for k, v in self.digests.items()},
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "WriterState":
        """Deserialize from bytes; raises on malformed input."""
        try:
            wire = encoding.decode(data)
            return cls(
                GdpName(wire["capsule"]),
                wire["last_seqno"],
                wire["timestamp"],
                {int(k): v for k, v in wire["digests"].items()},
            )
        except (EncodingError, KeyError, TypeError, ValueError) as exc:
            raise WriterStateError(f"corrupt writer state: {exc}") from exc

    def save(self, path: str) -> None:
        """Atomically persist to *path* (write-then-rename, the simulated
        non-volatile memory)."""
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(self.to_bytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "WriterState":
        """Load from *path*; raises on missing/corrupt state."""
        try:
            with open(path, "rb") as fh:
                return cls.from_bytes(fh.read())
        except OSError as exc:
            raise WriterStateError(f"cannot load writer state: {exc}") from exc


class CapsuleWriter:
    """Strict Single-Writer (SSW): a linear, totally ordered history.

    ``append`` produces a signed (record, heartbeat) pair ready to hand
    to the client/transport layer; nothing is kept but the digests the
    strategy can still name.
    """

    def __init__(
        self,
        metadata: Metadata,
        writer_key: SigningKey,
        *,
        state: WriterState | None = None,
        state_path: str | None = None,
        clock: Callable[[], int] | None = None,
    ):
        metadata.verify()
        if writer_key.public != metadata.writer_key:
            raise WriterStateError(
                "signing key does not match the capsule's designated writer"
            )
        self.name: GdpName = metadata.name
        self.strategy: PointerStrategy = get_strategy(
            metadata.properties[PROP_POINTER_STRATEGY]
        )
        self._key = writer_key
        self._state_path = state_path
        self._clock = clock
        if state is not None:
            self.state = state
        elif state_path is not None and os.path.exists(state_path):
            self.state = WriterState.load(state_path)
        else:
            self.state = WriterState(self.name)
        if self.state.capsule != self.name:
            raise WriterStateError("writer state belongs to another capsule")

    @property
    def last_seqno(self) -> int:
        """The last locally minted sequence number."""
        return self.state.last_seqno

    def _next_timestamp(self) -> int:
        if self._clock is not None:
            tick = self._clock()
            # Logical clocks must move forward even if the wall clock
            # stalls in a simulation step.
            self.state.timestamp = max(self.state.timestamp + 1, tick)
        else:
            self.state.timestamp += 1
        return self.state.timestamp

    def _retire_stale_digests(self, last_seqno: int) -> None:
        self.state.digests = {
            seqno: digest
            for seqno, digest in self.state.digests.items()
            if self.strategy.still_needed(seqno, last_seqno)
        }

    def _mint(self, payload: bytes) -> Record:
        """Create the next record and advance the writer state."""
        seqno = self.state.last_seqno + 1
        record = build_record(self, seqno, payload, self.state.digests)
        self.state.last_seqno = seqno
        self.state.digests[seqno] = record.digest
        self._retire_stale_digests(seqno)
        return record

    def append(self, payload: bytes) -> tuple[Record, Heartbeat]:
        """Create and sign the next record (a batch of one)."""
        records, heartbeat = self.append_batch([payload])
        return records[0], heartbeat

    def append_batch(
        self, payloads: list[bytes]
    ) -> tuple[list[Record], Heartbeat | None]:
        """Mint a run of records under ONE signed heartbeat at the tip.

        The paper requires a heartbeat per *signed point*, not per
        record: a tip heartbeat pins the whole batch through the hash
        pointers, so a batch costs one signature (and one state save)
        instead of ``len(payloads)`` — the crypto half of the batched
        append path's speedup.  The run is returned, not kept: every
        replica takes it through ``DataCapsule.admit``.
        """
        if not payloads:
            return [], None
        records = [self._mint(payload) for payload in payloads]
        tip = records[-1]
        heartbeat = Heartbeat.create(
            self._key, self.name, tip.seqno, tip.digest, self._next_timestamp(),
        )
        if self._state_path is not None:
            self.state.save(self._state_path)
        return records, heartbeat


class QuasiWriter(CapsuleWriter):
    """Quasi-Single-Writer (QSW): SSW plus crash recovery from a replica.

    "The assumption in QSW mode is that there can be more than one
    concurrent writers from time to time, but such situations are rare"
    (§VI-C).  After losing local state, call :meth:`resume_from_tip` with
    a verified tip fetched from any replica (``ClientWriter.resume`` reads
    it); appends continue from there.  If the lost state had newer
    records, the capsule gains a branch — detected downstream, never
    silently overwritten.
    """

    def resume_from_tip(self, tip: Record, records: Iterable[Record] = ()) -> None:
        """Rebuild minimal writer state from a replica's tip record.

        The tip's own digest plus the digests of whichever verified
        *records* the strategy still needs (e.g. a checkpoint) are kept;
        a needed digest that was not passed in fails loudly
        (:class:`HoleError`) on the append that needs it.
        """
        if tip.capsule != self.name:
            raise WriterStateError("tip belongs to another capsule")
        digests: dict[int, bytes] = {tip.seqno: tip.digest}
        for record in records:
            if self.strategy.still_needed(record.seqno, tip.seqno):
                digests[record.seqno] = record.digest
        self.state = WriterState(
            self.name,
            last_seqno=tip.seqno,
            timestamp=max(self.state.timestamp, tip.seqno),
            digests=digests,
        )
        if self._state_path is not None:
            self.state.save(self._state_path)
