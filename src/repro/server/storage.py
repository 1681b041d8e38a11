"""Storage backends for DataCapsule-servers.

The paper's server "uses SQLite for the back-end storage; each
DataCapsule is stored in its own separate SQLite database" (§VIII) so
random reads are efficient.  Here every read is served from the
replica's in-memory :class:`DataCapsule`, and storage is a log the
server replays on restart (``load_entries`` + ``sync_leaves``), behind
one interface with two backends:

- :class:`MemoryStore` — dict-backed, for simulations and as the
  conformance reference.
- :class:`~repro.server.segmented.SegmentedStore` — every disk: one
  directory of CRC-framed segments per capsule, crash-recovered on
  open, so a restarted server recovers exactly the records it had
  acknowledged.

Backends store *wire forms* (dicts of bytes/ints), not live objects —
whatever comes back is re-validated by the capsule layer, so a corrupt
disk shows up as an integrity error, not silent data loss.  Records and
heartbeats have one write, :meth:`StorageBackend.append_entries`: the
server persists each admitted run with one call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

from repro.capsule import DataCapsule, Heartbeat, Record
from repro.errors import StorageError
from repro.naming.names import GdpName

__all__ = ["StorageBackend", "MemoryStore", "SegmentedStore", "replay_entry"]

_TAG_METADATA = "m"
_TAG_RECORD = "r"
_TAG_HEARTBEAT = "h"


class StorageBackend(ABC):
    """Per-server persistent storage for capsule wire data."""

    @abstractmethod
    def store_metadata(self, name: GdpName, metadata_wire: dict) -> None:
        """Persist capsule metadata (idempotent)."""

    @abstractmethod
    def load_metadata(self, name: GdpName) -> dict | None:
        """The stored metadata wire form, or None."""

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
        write order; tags are 'm'/'r'/'h'.

        Conformance contract (asserted by the cross-backend suite):
        write order is preserved even under interleaved branch appends
        (two records at the same seqno come back in the order they were
        appended), and the iterator is a *snapshot at call time* —
        entries appended after ``load_entries`` returns are not seen by
        that iterator."""

    @abstractmethod
    def list_capsules(self) -> list[GdpName]:
        """Names of all capsules with stored state."""

    @abstractmethod
    def delete_capsule(self, name: GdpName) -> None:
        """Remove all state for a capsule."""

    def sync(self) -> None:
        """Flush everything buffered to the durable medium (no-op for
        backends that persist synchronously)."""

    def sync_leaves(self, name: GdpName) -> dict[int, bytes]:
        """Persisted Merkle sync-index leaves (``seqno -> leaf``) that
        recovery may seed a capsule's cache from; none for backends
        that keep no index."""
        return {}

    def note_checkpoint(self, name: GdpName, seqno: int) -> None:
        """*seqno* is a checkpoint record: history below it may be
        compacted (no-op for backends that never compact)."""


class MemoryStore(StorageBackend):
    """Dict-backed storage for simulations and tests.

    Like every :class:`StorageBackend` it models the server's *durable*
    medium: :meth:`DataCapsuleServer.crash` wipes the in-memory capsule
    and session state but leaves the backend intact, and ``restart``
    replays it.  (Simulated crash-restart therefore behaves the same
    over every backend; only a disk survives real process death.)"""

    def __init__(self):
        self._data: dict[GdpName, list[tuple[str, dict]]] = {}

    def store_metadata(self, name: GdpName, metadata_wire: dict) -> None:
        """Persist capsule metadata (idempotent)."""
        log = self._data.setdefault(name, [])
        if not any(tag == _TAG_METADATA for tag, _ in log):
            log.append((_TAG_METADATA, metadata_wire))

    def load_metadata(self, name: GdpName) -> dict | None:
        """The stored metadata wire form, or None."""
        for tag, wire in self._data.get(name, []):
            if tag == _TAG_METADATA:
                return wire
        return None

    def append_entries(
        self, name: GdpName, entries: list[tuple[str, dict]]
    ) -> int:
        """Persist a run of ``(tag, wire)`` entries in order."""
        _check_tags(entries)
        log = self._data.get(name)
        if log is None:
            raise StorageError(f"capsule {name.human()} is not hosted here")
        log.extend(entries)
        return len(entries)

    def load_entries(self, name: GdpName) -> Iterator[tuple[str, dict]]:
        """Yield (tag, wire) entries in write order.

        Returns an iterator over a snapshot *tuple* of the stored
        entries — sharing the wire dicts (recovery re-validates through
        ``from_wire``) but not the list, so appends racing the iteration
        cannot leak into it (the cross-backend conformance contract;
        previously this iterated the live list)."""
        return iter(tuple(self._data.get(name, ())))

    def list_capsules(self) -> list[GdpName]:
        """Names of all capsules with stored state."""
        return sorted(self._data)

    def delete_capsule(self, name: GdpName) -> None:
        """Remove all state for a capsule."""
        self._data.pop(name, None)


def replay_entry(capsule: DataCapsule, tag: str, wire: dict) -> bool:
    """Apply one stored ``(tag, wire)`` entry to *capsule* — the one way
    a log becomes a replica again (recovery, and every check of it).
    Returns ``True`` for a new record; raises on a failing frame."""
    if tag == _TAG_RECORD:
        record = Record.from_wire(capsule.name, wire)
        return capsule.insert(record, enforce_strategy=False)
    if tag == _TAG_HEARTBEAT:
        capsule.add_heartbeat(Heartbeat.from_wire(wire))
    return False


def _check_tags(entries: list[tuple[str, dict]]) -> None:
    for tag, _ in entries:
        if tag not in (_TAG_RECORD, _TAG_HEARTBEAT):
            raise StorageError(f"cannot batch-append tag {tag!r}")


# The segmented-log engine lives in its own module (it is an order of
# magnitude more machinery than the in-memory backend) but is part of
# this package's public surface; the bottom-of-file import avoids a cycle.
from repro.server.segmented import SegmentedStore  # noqa: E402
