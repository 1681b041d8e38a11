"""Storage backends for DataCapsule-servers.

The paper's server "uses SQLite for the back-end storage; each
DataCapsule is stored in its own separate SQLite database" (§VIII) so
random reads are efficient.  Here storage is a log, behind one interface
with two backends, and the only copy of a replica's payloads: its
in-memory :class:`DataCapsule` holds record headers, and every read joins
them with the backend's point read (:meth:`StorageBackend.read_records`),
each wire checked against its header before it is served.  Per capsule a
backend keeps two things: the *hosting record*
(``store_hosting`` / ``load_hosting``: the metadata, this server's
delegation chain and the owner-signed placement it last applied; the
last write wins) and the log of records and heartbeats
(``append_entries``; read whole by ``load_entries`` on restart, by seqno
through ``read_records``).  What a
server hosts after a restart is what its hosting records say, re-verified
(``DataCapsuleServer.recover_from_storage``).  The two backends:

- :class:`MemoryStore` — dict-backed, for simulations and as the
  conformance reference.
- :class:`~repro.server.segmented.SegmentedStore` — every disk: one
  directory per capsule, a ``MANIFEST`` holding the hosting record and
  CRC-framed segments holding the log, crash-recovered on open, so a
  restarted server recovers exactly the records it had acknowledged.

Backends store *wire forms* (dicts of bytes/ints), not live objects —
whatever comes back is admitted again by the capsule layer's
attestation rule (:func:`replay`), so a record altered at rest is
refused and counted, never replayed as the replica's record.  Records and
heartbeats have one write, :meth:`StorageBackend.append_entries`: the
server persists each admitted run with one call, and a backend keeps
nothing derived from them — the replica computes its sync leaves from
what the replay admitted.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Sequence

from repro.capsule import DataCapsule, Heartbeat, Record
from repro.encoding import Encoded, encode
from repro.errors import GdpError, StorageError
from repro.naming.names import GdpName

__all__ = ["StorageBackend", "MemoryStore", "SegmentedStore", "replay"]

_TAG_RECORD = "r"
_TAG_HEARTBEAT = "h"


class StorageBackend(ABC):
    """Per-server persistent storage for capsule wire data."""

    #: integrity events the backend observed reading its medium, in
    #: order (``{"event": ..., "capsule": hex, ...}``); a backend whose
    #: medium cannot tear or rot observes none
    recovery_log: Sequence[dict] = ()

    @abstractmethod
    def store_hosting(self, name: GdpName, hosting: dict) -> None:
        """Persist the capsule's hosting record, replacing any earlier
        one (creates the capsule's storage on first call).  The write
        is atomic: a crash leaves the old record or the new one."""

    @abstractmethod
    def load_hosting(self, name: GdpName) -> dict | None:
        """The last stored hosting record, or None."""

    @abstractmethod
    def append_entries(
        self, name: GdpName, entries: list[tuple[str, dict]]
    ) -> int:
        """Persist a run of ``(tag, wire)`` entries in order, as one write
        (and at most one fsync); returns how many were appended.  The
        only write of records and heartbeats: tags are 'r'/'h', and any
        other tag raises :class:`StorageError` before anything is
        written."""

    @abstractmethod
    def load_entries(self, name: GdpName) -> Iterator[tuple[str, dict]]:
        """Yield ``(tag, wire)`` for every stored entry of a capsule, in
        write order; tags are 'r'/'h'.

        Conformance contract (asserted by the cross-backend suite):
        write order is preserved even under interleaved branch appends
        (two records at the same seqno come back in the order they were
        appended), and the iterator is a *snapshot at call time* —
        entries appended after ``load_entries`` returns are not seen by
        that iterator."""

    @abstractmethod
    def read_records(
        self, name: GdpName, seqnos: Iterable[int], keep=None
    ) -> dict[int, list[Encoded]]:
        """The point read: the stored record wires at *seqnos* by seqno
        (:class:`~repro.encoding.Encoded` carriers), branches in write
        order, never bytes past a torn tail; the caller
        checks each against the header it holds (:meth:`Record.matches`).
        A wire failing *keep* leaves the read path for good (its frame
        stays in the log)."""

    @abstractmethod
    def list_capsules(self) -> list[GdpName]:
        """Names of all capsules with stored state."""

    @abstractmethod
    def drop_entries(self, name: GdpName) -> None:
        """Remove every record and heartbeat of a capsule (a retired
        replica); its hosting record stays."""

    def sync(self) -> None:
        """Flush everything buffered to the durable medium (no-op for
        backends that persist synchronously)."""

    def note_checkpoint(self, name: GdpName, seqno: int) -> None:
        """*seqno* is a checkpoint record: history below it may be
        compacted (no-op for backends that never compact)."""


class MemoryStore(StorageBackend):
    """Dict-backed storage for simulations and tests.

    Like every :class:`StorageBackend` it models the server's *durable*
    medium: :meth:`DataCapsuleServer.restart` wipes everything the
    server keeps in memory — hosting table included — and recovers from
    the backend, exactly as a fresh process over a disk does.  Each
    capsule's hosting record sits in one slot of ``_hosting``; its log
    is ``_data[name]``, a list of ``(tag, wire)`` entries (its records
    filed by seqno in ``_records[name]``)."""

    def __init__(self):
        self._hosting: dict[GdpName, dict] = {}
        self._data: dict[GdpName, list[tuple[str, dict]]] = {}
        self._records: dict[GdpName, dict[int, list[dict]]] = {}

    def store_hosting(self, name: GdpName, hosting: dict) -> None:
        """Persist the hosting record (the last write wins)."""
        self._hosting[name] = hosting
        self._data.setdefault(name, [])
        self._records.setdefault(name, {})

    def load_hosting(self, name: GdpName) -> dict | None:
        """The last stored hosting record, or None."""
        return self._hosting.get(name)

    def append_entries(
        self, name: GdpName, entries: list[tuple[str, dict]]
    ) -> int:
        """Persist a run of ``(tag, wire)`` entries in order."""
        _check_tags(entries)
        log = self._data.get(name)
        if log is None:
            raise StorageError(f"capsule {name.human()} is not hosted here")
        log.extend(entries)
        by_seqno = self._records[name]
        for tag, wire in entries:
            if tag == _TAG_RECORD:
                by_seqno.setdefault(wire["seqno"], []).append(wire)
        return len(entries)

    def load_entries(self, name: GdpName) -> Iterator[tuple[str, dict]]:
        """Yield (tag, wire) entries in write order, from a snapshot
        tuple: the wire dicts are shared, the list is not, so appends
        racing the iteration cannot leak into it."""
        return iter(tuple(self._data.get(name, ())))

    def read_records(
        self, name: GdpName, seqnos: Iterable[int], keep=None
    ) -> dict[int, list[Encoded]]:
        """The stored wires at *seqnos*, each a carrier of its canonical
        bytes (its value decoded fresh from them)."""
        by_seqno = self._records.get(name, {})
        if keep is not None:
            seqnos = [seqno for seqno in seqnos if seqno in by_seqno]
            by_seqno.update({n: list(filter(keep, by_seqno[n])) for n in seqnos})
        return {
            seqno: [Encoded(encode(wire)) for wire in by_seqno[seqno]]
            for seqno in seqnos
            if seqno in by_seqno
        }

    def list_capsules(self) -> list[GdpName]:
        """Names of all capsules with stored state."""
        return sorted(self._hosting)

    def drop_entries(self, name: GdpName) -> None:
        """Remove every record and heartbeat; the hosting record stays."""
        if name in self._data:
            self._data[name] = []
            self._records[name] = {}


def replay(
    capsule: DataCapsule, entries: Iterable[tuple[str, dict]]
) -> tuple[int, int]:
    """Rebuild *capsule* from a stored log — the one way a log becomes a
    replica again (recovery, and every check of it).  The log streams
    into :meth:`DataCapsule.admit_fetched` under one *held* dict, where
    a run's records wait for their heartbeat or a stored successor.
    Returns ``(new records, refused frames)``: records still held at the
    end, heartbeats that do not verify, frames that do not parse."""
    held: dict[bytes, Record] = {}
    records: list[Record] = []
    new = refused = 0
    for tag, wire in entries:
        try:
            if tag == _TAG_RECORD:
                records.append(Record.from_wire(capsule.name, wire))
                continue
            if tag != _TAG_HEARTBEAT:
                continue
            heartbeat = Heartbeat.from_wire(wire)
        except GdpError:
            refused += 1
            continue
        admitted, beats = capsule.admit_fetched(records, [heartbeat], held)
        new += len(admitted)
        if not beats and heartbeat not in capsule.heartbeats_at(heartbeat.seqno):
            refused += 1  # it does not verify
        records = []
    new += len(capsule.admit_fetched(records, [], held)[0])
    return new, refused + len(held)


def _check_tags(entries: list[tuple[str, dict]]) -> None:
    for tag, _ in entries:
        if tag not in (_TAG_RECORD, _TAG_HEARTBEAT):
            raise StorageError(f"cannot batch-append tag {tag!r}")


# The segmented-log engine lives in its own module (it is an order of
# magnitude more machinery than the in-memory backend) but is part of
# this package's public surface; the bottom-of-file import avoids a cycle.
from repro.server.segmented import SegmentedStore  # noqa: E402
