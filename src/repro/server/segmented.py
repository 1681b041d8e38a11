"""Segmented-log storage engine: the one durable backend.

The paper pitches DataCapsules as "cryptographically hardened bundles"
holding entire application histories on federated edge infrastructure
(§IV), and gives each capsule its own database on the server (§VIII).
:class:`SegmentedStore` meets the
:class:`~repro.server.storage.StorageBackend` contract at that scale by
organising each capsule as a sequence of *segments*:

- The **active** (tail) segment absorbs appends through a user-space
  buffer; every frame carries a CRC32 so a crash mid-write is detected
  as a *torn frame* on reopen, and the tail is physically truncated back
  to the last intact frame (logged once in :attr:`recovery_log`).
- When the active segment reaches ``segment_bytes`` it is **sealed**:
  fsynced, made immutable, and listed as such in the ``MANIFEST`` with
  its record count and seqno span.  A segment is its frames: nothing
  beside them is derived from the records, so a restart's replay is the
  only reader and the replica computes its own sync leaves from it.
- Sealed segments are **compacted** when they fall entirely below the
  capsule's last *checkpoint* record (``note_checkpoint``): adjacent
  segments merge into one and superseded heartbeats are dropped
  (records are never dropped — the hash chain must re-verify); a run
  holding a frame that fails its CRC is left unmerged.
- Cold sealed segments beyond the ``hot_segments`` newest are
  **tiered** to an object store (the ``baselines/s3sim`` shape: a
  flat key→blob PUT/GET/DELETE service); a replay GETs each one once.

A restart replays the log (:meth:`SegmentedStore.load_entries`); a
running server reads its payloads back by seqno
(:meth:`SegmentedStore.read_records`: an ``os.pread``, or a ranged GET
of a tiered segment, no cache).  A frame is found through an in-memory
``(seqno, offset, length)`` locator, never persisted: filled on append
(and by the tail replay), by compaction for the frames it writes, and by
one CRC-checked walk of a reopened sealed segment on its first read.

Durability state machine (every mutation is crash-safe at each arrow;
the torture suite in ``tests/torture/`` kills the store at every named
crash point and asserts no acked record is lost):

    append:  buffer → [flush → fsync per FsyncPolicy] → ack
    seal:    fsync(seg) → MANIFEST
    tier:    PUT object → MANIFEST(tier=object) → unlink local seg
    compact: write merged seg (fresh id) → MANIFEST → unlink olds
    hosting: MANIFEST (a new capsule's, before its first segment)
    drop:    DELETE tier objects → MANIFEST(fresh tail) → unlink olds

The ``MANIFEST`` (atomic tmp+rename) is the commit point for every
multi-file transition: on open, any local segment whose id the manifest
does not list is a crashed transaction's debris and is deleted; any
segment the manifest says is tiered but still exists locally lost only
its unlink and is re-unlinked.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Callable, Iterable, Iterator

from repro import encoding
from repro.capsule import Record
from repro.errors import GdpError, StorageError
from repro.naming.names import GdpName
from repro.server.durability import FsyncPolicy
from repro.server.storage import (
    _TAG_HEARTBEAT,
    _TAG_RECORD,
    StorageBackend,
    _check_tags,
)

__all__ = ["SegmentedStore", "SegmentInfo", "SimulatedCrash", "CRASH_POINTS"]

_MAGIC = b"GDPSEG1\n"
_FRAME = struct.Struct(">BII")  # tag byte, payload length, crc32(payload)
_MANIFEST = "MANIFEST"

#: un-fsynced appends leave user space once this many bytes are buffered
_FLUSH_BYTES = 64 * 1024
#: automatic compaction waits for a run of at least this many segments
_COMPACT_MIN_SEGMENTS = 4

#: Every site where the torture harness may kill the store.  Names are
#: ``<operation>.<boundary>``; ``append.torn`` additionally simulates a
#: power loss mid-``write`` by leaving half a frame on disk.
CRASH_POINTS = (
    "append.before",
    "append.torn",
    "append.buffered",
    "append.after",
    "seal.before",
    "seal.pre_manifest",
    "seal.post_manifest",
    "tier.before",
    "tier.uploaded",
    "tier.pre_unlink",
    "compact.before",
    "compact.merged",
    "compact.pre_cleanup",
)


class SimulatedCrash(Exception):
    """Raised by a crash hook to kill the store at a crash point.

    Deliberately *not* a :class:`~repro.errors.GdpError`: production
    error handling must never swallow it, so torture schedules see the
    crash exactly where it was injected.
    """


class SegmentInfo:
    """Manifest entry for one segment (mutable while active)."""

    __slots__ = ("id", "sealed", "tier", "records", "first", "last", "bytes")

    def __init__(
        self,
        id: int,
        *,
        sealed: bool = False,
        tier: str = "local",
        records: int = 0,
        first: int = 0,
        last: int = 0,
        bytes: int = len(_MAGIC),
    ):
        self.id = id
        self.sealed = sealed
        self.tier = tier
        self.records = records
        self.first = first
        self.last = last
        self.bytes = bytes

    def to_wire(self) -> dict:
        return {
            "id": self.id,
            "sealed": self.sealed,
            "tier": self.tier,
            "records": self.records,
            "first": self.first,
            "last": self.last,
            "bytes": self.bytes,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "SegmentInfo":
        return cls(
            wire["id"],
            sealed=wire["sealed"],
            tier=wire["tier"],
            records=wire["records"],
            first=wire["first"],
            last=wire["last"],
            bytes=wire["bytes"],
        )

    def __repr__(self) -> str:
        state = "sealed" if self.sealed else "active"
        return (
            f"SegmentInfo(id={self.id}, {state}, tier={self.tier}, "
            f"records={self.records}, seqnos=[{self.first},{self.last}])"
        )


class _Locators:
    """One segment's record frames — seqno, offset and length of each
    wire, 24 bytes a frame — sorted by seqno (then write order)."""

    __slots__ = ("seqnos", "spans")

    def __init__(self):
        self.seqnos = array("Q")
        self.spans = array("Q")  # offset, length of each frame's wire

    def add(self, seqno: int, offset: int, length: int) -> None:
        at = bisect_right(self.seqnos, seqno)
        self.seqnos.insert(at, seqno)
        self.spans.insert(2 * at, length)
        self.spans.insert(2 * at, offset)

    def find(self, seqno: int) -> Iterator[tuple[int, int]]:
        at = bisect_left(self.seqnos, seqno)
        while at < len(self.seqnos) and self.seqnos[at] == seqno:
            yield self.spans[2 * at], self.spans[2 * at + 1]
            at += 1

    def drop(self, seqno: int, span: tuple[int, int]) -> None:
        at = bisect_left(self.seqnos, seqno)
        while (self.spans[2 * at], self.spans[2 * at + 1]) != span:
            at += 1
        del self.seqnos[at], self.spans[2 * at : 2 * at + 2]


class _CapsuleLog:
    """In-memory state for one capsule's segment chain."""

    __slots__ = (
        "name",
        "dir",
        "hosting",
        "checkpoint",
        "segments",
        "buffer",
        "size",
        "pending_fsync",
        "locators",
        "rotten",
    )

    def __init__(self, name: GdpName, directory: str):
        self.name = name
        self.dir = directory
        self.hosting: dict | None = None
        self.checkpoint = 0
        self.segments: list[SegmentInfo] = []
        self.buffer = bytearray()  # active-segment bytes not yet write()n
        self.size = 0  # active file length incl. magic and buffer
        self.pending_fsync = 0  # bytes written/buffered since last fsync
        self.locators: dict[int, _Locators] = {}  # by segment id
        self.rotten: set[int] = set()  # sealed segments a walk found rot in

    @property
    def active(self) -> SegmentInfo:
        return self.segments[-1]

    def manifest_wire(self) -> dict:
        return {
            "version": 1,
            "hosting": self.hosting,
            "checkpoint": self.checkpoint,
            "segments": [seg.to_wire() for seg in self.segments],
        }


class SegmentedStore(StorageBackend):
    """Segmented-log storage engine (see module docstring).

    Layout under *root*::

        <capsule-hex>/MANIFEST        hosting record + segment chain;
                                      the commit point (atomic rewrite)
        <capsule-hex>/seg-00000001.seg   frames (magic + tag/len/crc)

    *fsync_policy* (a :class:`FsyncPolicy` or its spec string) says
    when an append reaches the platter: ``"always"`` before every ack,
    ``"batch:N"`` once N bytes are pending, ``"drain"`` only at
    seal/:meth:`sync`.
    """

    _MAX_HANDLES = 64

    def __init__(
        self,
        root: str,
        *,
        fsync_policy: FsyncPolicy | str = "always",
        segment_bytes: int = 1 << 20,
        hot_segments: int = 2,
        tier=None,
        crash_hook: Callable[[str], None] | None = None,
    ):
        self.root = root
        if isinstance(fsync_policy, str):
            fsync_policy = FsyncPolicy(fsync_policy)
        self.fsync_policy = fsync_policy
        self.segment_bytes = segment_bytes
        self.hot_segments = hot_segments
        self.tier = tier
        self.crash_hook = crash_hook
        os.makedirs(root, exist_ok=True)
        if any(entry.endswith(".dclog") for entry in os.listdir(root)):
            # list_capsules() skips plain files, so opening such a root
            # would serve an empty store and report success.
            raise StorageError(
                f"{root} holds flat-file .dclog capsule logs, which this "
                "engine does not read; refusing to serve it as empty"
            )
        self._logs: dict[GdpName, _CapsuleLog] = {}
        self._handles: "OrderedDict[GdpName, object]" = OrderedDict()
        #: recovery / integrity events observed by this instance, in
        #: order: ``{"event": ..., "capsule": hex, ...}``
        self.recovery_log: list[dict] = []
        self._dead = False

    # -- crash-point plumbing ------------------------------------------------

    def _crashpoint(self, site: str) -> None:
        hook = self.crash_hook
        if hook is None:
            return
        try:
            hook(site)
        except SimulatedCrash:
            # The process is "dead": user-space buffers are lost, only
            # bytes already write()n survive.  Poison the instance so a
            # test bug cannot keep using it as if nothing happened.
            self._dead = True
            raise

    def _check_alive(self) -> None:
        if self._dead:
            raise StorageError("store has crashed (SimulatedCrash)")

    # -- paths / low-level io ------------------------------------------------

    def _dir(self, name: GdpName) -> str:
        return os.path.join(self.root, name.hex())

    @staticmethod
    def _seg_path(directory: str, seg_id: int) -> str:
        return os.path.join(directory, f"seg-{seg_id:08d}.seg")

    def _tier_key(self, name: GdpName, seg_id: int) -> str:
        return f"{name.hex()}/seg-{seg_id:08d}.seg"

    @staticmethod
    def _write_atomic(path: str, blob: bytes) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(os.path.dirname(path), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def _write_manifest(self, log: _CapsuleLog) -> None:
        self._write_atomic(
            os.path.join(log.dir, _MANIFEST),
            encoding.encode(log.manifest_wire()),
        )

    def _handle(self, log: _CapsuleLog):
        fh = self._handles.get(log.name)
        if fh is not None:
            self._handles.move_to_end(log.name)
            return fh
        path = self._seg_path(log.dir, log.active.id)
        try:
            fh = open(path, "ab", buffering=0)
        except OSError as exc:
            raise StorageError(f"open failed: {exc}") from exc
        self._handles[log.name] = fh
        while len(self._handles) > self._MAX_HANDLES:
            old_name, old_fh = self._handles.popitem(last=False)
            old_log = self._logs.get(old_name)
            if old_log is not None and old_log.buffer:
                old_fh.write(bytes(old_log.buffer))
                old_log.buffer.clear()
            old_fh.close()
        return fh

    def _release_handle(self, name: GdpName) -> None:
        fh = self._handles.pop(name, None)
        if fh is not None:
            fh.close()

    def _flush(self, log: _CapsuleLog) -> None:
        if log.buffer:
            self._handle(log).write(bytes(log.buffer))
            log.buffer.clear()

    def _fsync_active(self, log: _CapsuleLog) -> None:
        self._flush(log)
        if log.pending_fsync:
            os.fsync(self._handle(log).fileno())
            log.pending_fsync = 0

    def _log_event(self, event: str, name: GdpName, **extra) -> None:
        entry = {"event": event, "capsule": name.hex(), **extra}
        self.recovery_log.append(entry)

    # -- open / recovery -----------------------------------------------------

    def _log_for(self, name: GdpName) -> _CapsuleLog | None:
        log = self._logs.get(name)
        if log is not None:
            return log
        directory = self._dir(name)
        if not os.path.exists(os.path.join(directory, _MANIFEST)):
            # Creation writes the manifest before any segment: without
            # one, nothing of this capsule was ever durable.
            return None
        log = self._open_log(name, directory)
        self._logs[name] = log
        return log

    def _require(self, name: GdpName) -> _CapsuleLog:
        log = self._log_for(name)
        if log is None:
            raise StorageError(f"capsule {name.human()} is not hosted here")
        return log

    def _local_segment_ids(self, directory: str) -> dict[int, str]:
        found = {}
        for fname in os.listdir(directory):
            if fname.startswith("seg-") and fname.endswith(".seg"):
                try:
                    found[int(fname[4:-4])] = os.path.join(directory, fname)
                except ValueError:
                    continue
        return found

    def _open_log(self, name: GdpName, directory: str) -> _CapsuleLog:
        """Recover a capsule's segment chain from disk (the recovery
        state machine: manifest → debris cleanup → tail replay)."""
        log = _CapsuleLog(name, directory)
        manifest_path = os.path.join(directory, _MANIFEST)
        # Crashed atomic rewrites leave .tmp files; they lost the race.
        for fname in os.listdir(directory):
            if fname.endswith(".tmp"):
                os.unlink(os.path.join(directory, fname))
        local = self._local_segment_ids(directory)
        with open(manifest_path, "rb") as fh:
            wire = encoding.decode(fh.read())
        log.hosting = wire["hosting"]
        log.checkpoint = wire["checkpoint"]
        log.segments = [SegmentInfo.from_wire(w) for w in wire["segments"]]
        known = {seg.id for seg in log.segments}
        for seg_id, path in local.items():
            if seg_id not in known:
                # Debris from a crashed seal/compact that never reached
                # its manifest commit point.
                os.unlink(path)
                self._log_event("debris_removed", name, segment=seg_id)
        for seg in log.segments:
            if seg.tier == "object" and seg.id in local:
                # Crash after PUT+manifest but before the local unlink.
                os.unlink(local[seg.id])
                self._log_event("tier_unlink_replayed", name, segment=seg.id)
        if not log.segments or log.segments[-1].sealed:
            # Crash between the seal's manifest commit and creating the
            # next active file: open a fresh tail.
            next_id = max((seg.id for seg in log.segments), default=0) + 1
            log.segments.append(SegmentInfo(next_id))
        self._replay_tail(log)
        return log

    def _replay_tail(self, log: _CapsuleLog) -> None:
        """Replay the active segment, truncating at the first torn or
        corrupt frame, and rebuild its span."""
        path = self._seg_path(log.dir, log.active.id)
        locators = log.locators[log.active.id] = _Locators()
        if not os.path.exists(path):
            with open(path, "wb") as fh:
                fh.write(_MAGIC)
                fh.flush()
                os.fsync(fh.fileno())
            log.size = len(_MAGIC)
            return
        with open(path, "rb") as fh:
            data = fh.read()
        good = len(_MAGIC)
        active = log.active
        active.records = 0
        active.first = 0
        active.last = 0
        if data[: len(_MAGIC)] != _MAGIC:
            good = 0  # torn creation: not even the magic survived
        else:
            for tag, payload, offset in _checked_frames(data):
                if tag is None:
                    break
                if tag == _TAG_RECORD:
                    seqno = encoding.decode(payload)["seqno"]
                    _extend_span(active, seqno)
                    locators.add(seqno, offset + _FRAME.size, len(payload))
                good = offset + _FRAME.size + len(payload)
        if good < len(data) or len(data) < len(_MAGIC):
            # The second clause catches a 0-byte (or sub-magic) active
            # file — a crash between creation and the magic write —
            # which must still get the header rewritten.
            dropped = len(data) - good
            with open(path, "r+b") as fh:
                fh.truncate(good)
                if good == 0:
                    fh.write(_MAGIC)
                    good = len(_MAGIC)
                fh.flush()
                os.fsync(fh.fileno())
            self._log_event(
                "tail_truncated",
                log.name,
                segment=log.active.id,
                dropped_bytes=dropped,
                offset=good,
            )
        log.size = good
        log.active.bytes = good
        log.pending_fsync = 0

    # -- StorageBackend contract ---------------------------------------------

    def store_hosting(self, name: GdpName, hosting: dict) -> None:
        """Persist the hosting record with one atomic manifest rewrite
        (the last write wins).  A new capsule's manifest is written
        before its first segment, which the tail replay creates."""
        self._check_alive()
        log = self._log_for(name)
        if log is None:
            log = _CapsuleLog(name, self._dir(name))
            os.makedirs(log.dir, exist_ok=True)
            log.segments = [SegmentInfo(1)]
        log.hosting = hosting
        self._write_manifest(log)
        if name not in self._logs:
            self._replay_tail(log)
            self._logs[name] = log

    def load_hosting(self, name: GdpName) -> dict | None:
        """The hosting record of the last manifest, or None."""
        log = self._log_for(name)
        return None if log is None else log.hosting

    def append_entries(
        self, name: GdpName, entries: list[tuple[str, dict]]
    ) -> int:
        """Persist a run of ``(tag, wire)`` entries with one buffered
        write and (under ``FsyncPolicy("always")``) one fsync."""
        _check_tags(entries)
        self._check_alive()
        log = self._require(name)
        self._crashpoint("append.before")
        chunk = bytearray()

        def commit() -> None:
            """Move the staged chunk into the active tail's buffer."""
            nonlocal chunk
            if not chunk:
                return
            log.buffer += chunk
            log.size += len(chunk)
            log.active.bytes = log.size
            log.pending_fsync += len(chunk)
            chunk = bytearray()

        hooked = self.crash_hook is not None
        segment_bytes = self.segment_bytes
        for tag, wire in entries:
            blob = encoding.encode(wire)
            frame = _FRAME.pack(ord(tag[0]), len(blob), zlib.crc32(blob))
            if hooked:
                try:
                    self._crashpoint("append.torn")
                except SimulatedCrash:
                    # Power loss mid-write: whatever was buffered plus
                    # half of this frame reaches the platter, then
                    # lights out.
                    fh = self._handle(log)
                    if log.buffer:
                        fh.write(bytes(log.buffer))
                        log.buffer.clear()
                    torn = (bytes(chunk) + frame + blob)[: len(chunk) + 7]
                    fh.write(torn)
                    raise
            if tag == _TAG_RECORD:
                _extend_span(log.active, wire["seqno"])
                log.locators[log.active.id].add(
                    wire["seqno"], log.size + len(chunk) + _FRAME.size, len(blob)
                )
            chunk += frame
            chunk += blob
            if log.size + len(chunk) >= segment_bytes:
                # Roll over mid-batch: a replication burst pushed
                # through append_entries must not grow one unbounded
                # segment just because it arrived as a single call.
                commit()
                self._seal(log)
        commit()
        self._crashpoint("append.buffered")
        policy = self.fsync_policy
        if policy.should_fsync(log.pending_fsync):
            self._fsync_active(log)
        elif len(log.buffer) >= _FLUSH_BYTES:
            self._flush(log)
        self._crashpoint("append.after")
        return len(entries)

    # -- sealing / tiering / compaction --------------------------------------

    def _seal(self, log: _CapsuleLog) -> None:
        """Seal the active segment and open a fresh tail (crash-safe:
        the manifest rewrite is the commit point)."""
        self._crashpoint("seal.before")
        self._fsync_active(log)
        active = log.active
        active.sealed = True
        active.bytes = log.size
        next_id = max(seg.id for seg in log.segments) + 1
        log.segments.append(SegmentInfo(next_id))
        log.locators[next_id] = _Locators()
        self._crashpoint("seal.pre_manifest")
        self._write_manifest(log)
        self._crashpoint("seal.post_manifest")
        self._release_handle(log.name)
        path = self._seg_path(log.dir, next_id)
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.flush()
            os.fsync(fh.fileno())
        log.size = len(_MAGIC)
        log.pending_fsync = 0
        if log.checkpoint:
            self._maybe_compact(log)
        if self.tier is not None:
            self._maybe_tier(log)

    def _maybe_tier(self, log: _CapsuleLog) -> None:
        sealed_local = [
            seg
            for seg in log.segments
            if seg.sealed and seg.tier == "local"
        ]
        for seg in sealed_local[: -self.hot_segments or None]:
            self._tier_segment(log, seg)

    def _tier_segment(self, log: _CapsuleLog, seg: SegmentInfo) -> None:
        self._crashpoint("tier.before")
        path = self._seg_path(log.dir, seg.id)
        with open(path, "rb") as fh:
            blob = fh.read()
        key = self._tier_key(log.name, seg.id)
        self.tier.put(key, blob)
        self._crashpoint("tier.uploaded")
        seg.tier = "object"
        self._write_manifest(log)
        self._crashpoint("tier.pre_unlink")
        os.unlink(path)
        self._log_event("segment_tiered", log.name, segment=seg.id)

    def note_checkpoint(self, name: GdpName, seqno: int) -> None:
        """Record that *seqno* is a checkpoint record: every segment
        wholly below it is eligible for compaction.  Persisted lazily —
        the next manifest rewrite carries it; losing it to a crash only
        delays compaction."""
        log = self._require(name)
        if seqno > log.checkpoint:
            log.checkpoint = seqno

    def _compact_run(self, log: _CapsuleLog) -> list[SegmentInfo]:
        """The first maximal *contiguous* run of sealed local segments
        wholly below the checkpoint — contiguity keeps load_entries'
        write order intact across the merge."""
        run: list[SegmentInfo] = []
        for seg in log.segments:
            if (
                seg.sealed
                and seg.tier == "local"
                and seg.last <= log.checkpoint
                and seg.records > 0
                and seg.id not in log.rotten
            ):
                run.append(seg)
            elif run:
                break
            elif seg.tier != "object":
                break  # a non-eligible local segment ends any hope
        return run

    def _maybe_compact(self, log: _CapsuleLog) -> None:
        run = self._compact_run(log)
        if len(run) >= _COMPACT_MIN_SEGMENTS:
            self._compact(log, run)

    def compact(self, name: GdpName) -> int:
        """Merge the contiguous run of sealed local segments below the
        last noted checkpoint into one; returns segments merged."""
        self._check_alive()
        log = self._require(name)
        run = self._compact_run(log)
        if len(run) < 2:
            return 0
        return self._compact(log, run)

    def _compact(self, log: _CapsuleLog, eligible: list[SegmentInfo]) -> int:
        """Merge *eligible* (sealed, local, all below the checkpoint)
        into one fresh segment, dropping superseded heartbeats; a frame
        failing its CRC leaves the run unmerged (returns 0)."""
        self._crashpoint("compact.before")
        merged_id = max(seg.id for seg in log.segments) + 1
        frames = bytearray(_MAGIC)
        merged = SegmentInfo(merged_id, sealed=True)
        locators = _Locators()
        scanned = []  # (tag, payload, wire)
        pointers: dict[bytes, list[bytes]] = {}
        for seg in eligible:
            for tag, payload, offset in _checked_frames(self._segment_buffer(log, seg)):
                if tag is None:
                    self._rotten(log, seg, offset)
                    return 0
                wire = encoding.decode(payload)
                if tag == _TAG_RECORD:
                    digest = Record.from_wire(log.name, wire).digest
                    pointers[digest] = [ptr[1] for ptr in wire["pointers"]]
                scanned.append((tag, payload, wire))
        # Replay keeps a record its heartbeat or an attested successor
        # attests, so a heartbeat goes only when a newer kept one reaches
        # its record by hash pointers: the one over a record before a
        # hole, or over a QSW side branch, stays (records never go).
        attested: set[bytes] = set()
        kept = []
        for frame in reversed(scanned):
            if frame[0] == _TAG_HEARTBEAT:
                if frame[2]["digest"] in attested:
                    continue
                frontier = [frame[2]["digest"]]
                for digest in frontier:  # grows while it is walked
                    if digest not in attested:
                        attested.add(digest)
                        frontier.extend(pointers.get(digest, ()))
            kept.append(frame)
        for tag, payload, wire in reversed(kept):
            if tag == _TAG_RECORD:
                _extend_span(merged, wire["seqno"])
                locators.add(wire["seqno"], len(frames) + _FRAME.size, len(payload))
            frames += _FRAME.pack(ord(tag), len(payload), zlib.crc32(payload))
            frames += payload
        merged.bytes = len(frames)
        seg_path = self._seg_path(log.dir, merged_id)
        with open(seg_path, "wb") as fh:
            fh.write(bytes(frames))
            fh.flush()
            os.fsync(fh.fileno())
        self._crashpoint("compact.merged")
        merged_ids = {seg.id for seg in eligible}
        position = log.segments.index(eligible[0])
        log.segments = [
            seg for seg in log.segments if seg.id not in merged_ids
        ]
        log.segments.insert(position, merged)
        self._write_manifest(log)
        for seg_id in merged_ids:
            log.locators.pop(seg_id, None)
        log.locators[merged_id] = locators
        self._crashpoint("compact.pre_cleanup")
        for seg_id in merged_ids:
            path = self._seg_path(log.dir, seg_id)
            if os.path.exists(path):
                os.unlink(path)
        self._log_event(
            "compacted",
            log.name,
            merged=sorted(merged_ids),
            into=merged_id,
            records=merged.records,
        )
        return len(merged_ids)

    # -- replay --------------------------------------------------------------

    def _segment_buffer(self, log: _CapsuleLog, seg: SegmentInfo):
        """The full byte content of a segment: an mmap of a local sealed
        file, one GET of a tiered one, a flushed file read of the active
        tail.  Nothing is cached across calls."""
        if not seg.sealed:
            self._flush(log)
            with open(self._seg_path(log.dir, seg.id), "rb") as fh:
                return fh.read()
        if seg.tier == "object":
            key = self._tier_key(log.name, seg.id)
            blob = self.tier.get(key)
            if blob is None:
                raise StorageError(f"tiered segment missing: {key}")
            return blob
        # Never .close()d: the mapping stays readable after the file is
        # unlinked (tiering, compaction), and GC unmaps it with the
        # last reference.
        with open(self._seg_path(log.dir, seg.id), "rb") as fh:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)

    def load_entries(self, name: GdpName) -> Iterator[tuple[str, dict]]:
        """Yield (tag, wire) entries in write order across segments.

        Snapshot semantics: the segment list and every local segment's
        bytes are captured when this is *called* — appends racing the
        iteration are not seen (sealed segments are immutable; the tail
        is flushed and read once; an unlinked-under-us local file stays
        readable through its mmap).  A tiered object never changes, so
        it is fetched when the iteration reaches it and only one is
        held at a time.  Decoding is lazy, so a 10M-record capsule never
        materializes all wires at once.
        """
        log = self._log_for(name)
        if log is None:
            return iter(())
        segments = list(log.segments)
        local = {
            seg.id: self._segment_buffer(log, seg)
            for seg in segments
            if seg.tier != "object"
        }

        def entries() -> Iterator[tuple[str, dict]]:
            for seg in segments:
                buf = local.pop(seg.id, None)
                if buf is None:
                    buf = self._segment_buffer(log, seg)
                for tag, payload, offset in _checked_frames(buf):
                    if tag is None:
                        # Sealed-frame rot: stop this segment (the rest
                        # is suspect) but keep later segments.  The
                        # server's recovery counts the event, and
                        # anti-entropy refetches what a sibling holds.
                        self._rotten(log, seg, offset)
                        break
                    yield tag, encoding.decode(payload)

        return entries()

    # -- point read ----------------------------------------------------------

    def read_records(
        self, name: GdpName, seqnos: Iterable[int], keep=None
    ) -> dict[int, list[encoding.Encoded]]:
        """The stored record wires at *seqnos*, carriers of exact byte
        ranges (a frame that no longer decodes is left out, for the
        caller's check against its header to count; with *keep*, it and
        every wire failing *keep* lose their locator, unpersisted)."""
        self._check_alive()
        wanted = sorted(set(seqnos))
        log = self._log_for(name)
        found: dict[int, list[encoding.Encoded]] = {}
        for seg in log.segments if log is not None else ():
            inside = [seqno for seqno in wanted if seg.first <= seqno <= seg.last]
            if not seg.records or not inside:
                continue
            locators = self._locators(log, seg)
            hits = [(seqno, span) for seqno in inside for span in locators.find(seqno)]
            if seg.tier == "object":
                key = self._tier_key(log.name, seg.id)
                blobs = [self.tier.get_range(key, *span) for _, span in hits]
            else:
                if not seg.sealed:
                    self._flush(log)
                fd = os.open(self._seg_path(log.dir, seg.id), os.O_RDONLY)
                try:
                    blobs = [os.pread(fd, length, offset) for _, (offset, length) in hits]
                finally:
                    os.close(fd)
            for (seqno, span), blob in zip(hits, blobs):
                try:
                    wire = encoding.decode(blob)
                except (GdpError, TypeError):
                    wire = None
                if keep is not None and (wire is None or not keep(wire)):
                    locators.drop(seqno, span)
                elif wire is not None:
                    found.setdefault(seqno, []).append(encoding.Encoded(blob, wire))
        return found

    def _locators(self, log: _CapsuleLog, seg: SegmentInfo) -> _Locators:
        """*seg*'s locators; a reopened sealed segment is walked for them."""
        locators = log.locators.get(seg.id)
        if locators is None:
            locators = _Locators()
            for tag, payload, offset in _checked_frames(self._segment_buffer(log, seg)):
                if tag is None:
                    self._rotten(log, seg, offset)
                elif tag == _TAG_RECORD:
                    seqno = encoding.decode(payload)["seqno"]
                    locators.add(seqno, offset + _FRAME.size, len(payload))
            log.locators[seg.id] = locators
        return locators

    def _rotten(self, log: _CapsuleLog, seg: SegmentInfo, offset: int) -> None:
        """Log a frame failing its CRC; *seg* is never compacted."""
        log.rotten.add(seg.id)
        self._log_event("corrupt_frame_skipped", log.name, segment=seg.id, offset=offset)

    # -- misc contract -------------------------------------------------------

    def list_capsules(self) -> list[GdpName]:
        """Names of all capsules with stored state."""
        names = []
        for entry in sorted(os.listdir(self.root)):
            if not os.path.exists(os.path.join(self.root, entry, _MANIFEST)):
                continue
            try:
                names.append(GdpName.from_hex(entry))
            except Exception:
                continue
        return names

    def drop_entries(self, name: GdpName) -> None:
        """Remove every segment and tiered object of a capsule; the manifest, and so the hosting record, stays.  Tier
        objects go first, then the manifest drops the segment chain
        (the commit point), then the local files.  A crash part-way
        leaves the hosting record, so recovery re-applies the retire,
        which repeats this; local files the manifest no longer lists
        are debris the next open removes."""
        self._check_alive()
        log = self._log_for(name)
        if log is None:
            return
        self._release_handle(name)
        if self.tier is not None:
            for seg in log.segments:
                if seg.tier == "object":
                    self.tier.delete(self._tier_key(name, seg.id))
        log.segments = [SegmentInfo(max(seg.id for seg in log.segments) + 1)]
        log.checkpoint = 0
        self._write_manifest(log)
        del self._logs[name]  # the next use reopens the empty chain
        for fname in os.listdir(log.dir):
            if fname.startswith("seg-"):
                os.unlink(os.path.join(log.dir, fname))

    def segments(self, name: GdpName) -> list[SegmentInfo]:
        """Snapshot of the capsule's segment chain (tests/bench)."""
        log = self._require(name)
        return list(log.segments)

    def sync(self) -> None:
        """Flush and fsync every open tail (the drain path: even under
        ``FsyncPolicy("drain")`` nothing buffered survives in volatile
        memory after a sync)."""
        self._check_alive()
        for log in self._logs.values():
            if log.name in self._handles or log.buffer or log.pending_fsync:
                self._fsync_active(log)

    def close(self) -> None:
        """Flush buffers and release every OS resource; the store can
        keep being used (handles reopen lazily)."""
        for log in self._logs.values():
            if log.buffer:
                self._flush(log)
        for fh in self._handles.values():
            fh.close()
        self._handles.clear()


def _checked_frames(buf) -> Iterator[tuple[str | None, bytes, int]]:
    """Yield ``(tag, payload, frame_offset)`` for each frame of a
    segment's bytes, which are whole frames; a frame failing its CRC or
    running past the end stops the walk with ``(None, b"", offset)``."""
    size = len(buf)
    offset = len(_MAGIC)
    while offset < size:
        if offset + _FRAME.size > size:
            break
        tag, length, crc = _FRAME.unpack_from(buf, offset)
        end = offset + _FRAME.size + length
        payload = bytes(buf[offset + _FRAME.size : end])
        if end > size or zlib.crc32(payload) != crc:
            break
        yield chr(tag), payload, offset
        offset = end
    else:
        return
    yield None, b"", offset


def _extend_span(seg: SegmentInfo, seqno: int) -> None:
    """Fold one record's seqno into *seg*'s count and span (the append
    path, tail replay and compaction)."""
    seg.records += 1
    if seg.first == 0 or seqno < seg.first:
        seg.first = seqno
    if seqno > seg.last:
        seg.last = seqno
