"""Memory-compact routing tables for million-name namespaces (§VII).

The paper's scaling claim — a flat 256-bit namespace resolved through
hierarchical GLookup — dies in Python if every table is a dict of
objects: a ``dict[GdpName, tuple]`` costs ~300 bytes per entry before
any evidence is attached.  This module provides the packed substrate
both tables share:

:class:`PackedMap`
    32-byte keys kept sorted in two parallel packed arrays — each key's
    first 8 bytes as an ``array('Q')`` of big-endian ints, searched by
    ``bisect`` in C, and the remaining 24 bytes in one ``bytes`` blob —
    plus a fixed-width ``bytearray`` value sidecar and a small dict
    write-log merged in batches.  A merge is a handful of slices joined
    at C speed, so sustained inserts cost an amortized O(log n) search
    plus a few bytes of memcpy each — not a per-record Python loop.

:class:`ExpiryWheel`
    Lease expirations bucketed by coarse time slot, each bucket a
    packed ``bytearray`` of 32-byte name tokens with an int-heap over
    the slot indices.  Purging processes only the buckets whose slot
    has fully elapsed — O(expired-processed), never O(table) — which
    is what keeps lease refresh and withdraw purge affordable at 1M
    names (ROADMAP item 1).

:class:`CompactFib`
    The router's name -> (next-hop, expiry) cache on top of both: the
    dict-compatible surface :mod:`repro.routing.router` and the
    simtest oracles already use, with next-hop nodes interned (a
    router has a handful of neighbors, not a million) and expired
    entries reclaimed by the wheel instead of lingering until the next
    lookup happens to touch them.
"""

from __future__ import annotations

import heapq
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterable, Iterator

from repro.naming.names import GdpName

__all__ = ["PackedMap", "ExpiryWheel", "CompactFib"]

KEY_BYTES = 32
PREFIX_BYTES = 8
SUFFIX_BYTES = KEY_BYTES - PREFIX_BYTES

#: a key's first 8 bytes as an int that sorts as the bytes do
_PREFIX = struct.Struct(">Q")
#: the same int in ``array('Q')``'s own byte order (merge input)
_NATIVE_Q = struct.Struct("=Q")

#: write-log size that triggers a merge into the sorted base arrays
DEFAULT_MERGE_THRESHOLD = 8192

#: slot of a key the write log holds (the base arrays were not searched)
_IN_LOG = -2


class PackedMap:
    """A sorted packed map: 32-byte keys -> fixed-width packed values.

    Layout: merged keys are split in two sorted parallel arrays —
    ``_prefixes``, an ``array('Q')`` of each key's first 8 bytes read
    as a big-endian int, and ``_suffixes``, one ``bytes`` blob of the
    other 24 bytes per key — so (prefix, suffix) order is byte order
    and a key still costs 32 bytes.  ``_base_vals`` is the parallel
    value sidecar (``bytearray``: a value is updated in place).  Writes
    land in ``_log`` (a dict; ``None`` marks a pending delete) and are
    merged once the log reaches ``merge_threshold``.

    A search is one ``bisect_left`` over the prefixes in C and one
    24-byte suffix compare; only keys sharing a prefix (never for
    digests, always for small-int test keys) fall back to a binary
    search over their suffixes.  The merge locates each sorted log key
    the same way and builds the new arrays from slices joined in C.
    """

    __slots__ = (
        "value_size",
        "merge_threshold",
        "_prefixes",
        "_suffixes",
        "_base_vals",
        "_log",
        "_count",
    )

    def __init__(
        self,
        value_size: int,
        *,
        merge_threshold: int = DEFAULT_MERGE_THRESHOLD,
    ):
        if value_size <= 0:
            raise ValueError("value_size must be positive")
        self.value_size = value_size
        self.merge_threshold = merge_threshold
        self._log: dict[bytes, bytes | None] = {}
        self.clear()

    # -- search over the packed base arrays ------------------------------

    def _locate(self, key: bytes, lo: int = 0) -> tuple[int, bool]:
        """``(idx, found)``: the first base index >= *lo* whose key is
        >= *key*, and whether that key is *key*."""
        prefixes = self._prefixes
        prefix = _PREFIX.unpack_from(key)[0]
        idx = bisect_left(prefixes, prefix, lo)
        if idx == len(prefixes) or prefixes[idx] != prefix:
            return idx, False
        suffix, off = key[PREFIX_BYTES:], idx * SUFFIX_BYTES
        if self._suffixes[off : off + SUFFIX_BYTES] == suffix:
            return idx, True
        # Several base keys share this prefix: binary search their suffixes.
        end = bisect_right(prefixes, prefix, idx)
        idx = bisect_left(range(end), suffix, idx, key=self._suffix_at)
        return idx, idx < end and self._suffix_at(idx) == suffix

    def _suffix_at(self, idx: int) -> bytes:
        return self._suffixes[idx * SUFFIX_BYTES : (idx + 1) * SUFFIX_BYTES]

    def _find(self, key: bytes) -> tuple[bytes | None, int]:
        """``(value, slot)`` for *key*, searching the base at most once.
        The slot (base index, ``_IN_LOG``, or -1) lets a read-then-write
        path call :meth:`_set_at` / :meth:`_delete_at` without searching
        again; it is valid until the next write."""
        logged = self._log.get(key, _MISSING)
        if logged is not _MISSING:
            return logged, _IN_LOG  # None for a pending delete
        idx, found = self._locate(key)
        if not found:
            return None, -1
        vsz = self.value_size
        return bytes(self._base_vals[idx * vsz : (idx + 1) * vsz]), idx

    def _set_at(self, key: bytes, value: bytes, slot: int) -> None:
        """:meth:`set` at the slot :meth:`_find` returned."""
        if slot >= 0:
            # In-place sidecar update: the cheap lease-refresh path.
            vsz = self.value_size
            self._base_vals[slot * vsz : (slot + 1) * vsz] = value
            return
        if self._log.get(key) is None:  # a new key or a pending delete
            self._count += 1
        self._log[key] = value
        if len(self._log) >= self.merge_threshold:
            self._merge()

    def _delete_at(self, key: bytes, slot: int) -> bool:
        """:meth:`delete` at the slot :meth:`_find` returned."""
        if slot == -1 or (slot == _IN_LOG and self._log[key] is None):
            return False  # absent, or already a pending delete
        if slot == _IN_LOG and not self._locate(key)[1]:
            del self._log[key]  # log-only record: drop outright
        else:
            self._log[key] = None
        self._count -= 1
        if len(self._log) >= self.merge_threshold:
            self._merge()
        return True

    # -- core operations -------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        """The packed value for *key*, or None."""
        return self._find(key)[0]

    def set(self, key: bytes, value: bytes) -> None:
        """Insert or replace the value for *key*."""
        if len(key) != KEY_BYTES or len(value) != self.value_size:
            raise ValueError("packed key/value size mismatch")
        self._set_at(key, value, self._find(key)[1])

    def delete(self, key: bytes) -> bool:
        """Remove *key*; returns whether it was present."""
        return self._delete_at(key, self._find(key)[1])

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self._count

    def keys(self) -> Iterator[bytes]:
        """All live keys (merged order first, then log inserts)."""
        return (key for key, _ in self.items())

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """All live (key, packed value) pairs."""
        log, vals, vsz = self._log, self._base_vals, self.value_size
        for idx, prefix in enumerate(self._prefixes):
            key = _PREFIX.pack(prefix) + self._suffix_at(idx)
            if key not in log:
                yield key, bytes(vals[idx * vsz : (idx + 1) * vsz])
        for key, value in log.items():
            if value is not None:
                yield key, value

    def clear(self) -> None:
        """Drop everything."""
        self._prefixes = array("Q")
        self._suffixes = b""
        self._base_vals = bytearray()
        self._log.clear()
        self._count = 0

    def compact(self) -> None:
        """Force-merge the write log into the sorted base arrays."""
        self._merge()

    def _merge(self) -> None:
        log = self._log
        if not log:
            return
        vsz, n = self.value_size, len(self._prefixes)
        # Pieces are bytes copies: array or memoryview slices are
        # GC-tracked, and one per log key would trigger collections.
        prefixes = self._prefixes.tobytes()
        suffixes, vals = self._suffixes, self._base_vals
        out_p: list = []  # prefix, suffix and value pieces
        out_s: list = []
        out_v: list = []
        pos = 0
        for key, value in sorted(log.items()):
            idx, found = self._locate(key, pos)
            if idx > pos:
                out_p.append(prefixes[pos * PREFIX_BYTES : idx * PREFIX_BYTES])
                out_s.append(suffixes[pos * SUFFIX_BYTES : idx * SUFFIX_BYTES])
                out_v.append(vals[pos * vsz : idx * vsz])
            pos = idx + 1 if found else idx  # a found key is replaced or deleted
            if value is not None:
                out_p.append(_NATIVE_Q.pack(_PREFIX.unpack_from(key)[0]))
                out_s.append(key[PREFIX_BYTES:])
                out_v.append(value)
        if pos < n:
            out_p.append(prefixes[pos * PREFIX_BYTES :])
            out_s.append(suffixes[pos * SUFFIX_BYTES :])
            out_v.append(vals[pos * vsz :])
        # The merged base holds exactly the live keys; sizing the array
        # up front avoids array('Q', bytes)'s 1/16 over-allocation.
        self._prefixes = array("Q", [0]) * self._count
        memoryview(self._prefixes).cast("B")[:] = b"".join(out_p)
        self._suffixes = b"".join(out_s)
        self._base_vals = bytearray(b"").join(out_v)
        log.clear()

    def memory_bytes(self) -> int:
        """Approximate resident bytes of the packed state (prefix array,
        suffix blob, value sidecar and the write log)."""
        return (
            sys.getsizeof(self._prefixes)
            + sys.getsizeof(self._suffixes)
            + sys.getsizeof(self._base_vals)
            + sys.getsizeof(self._log)
            + sum(
                sys.getsizeof(k) + (sys.getsizeof(v) if v is not None else 0)
                for k, v in self._log.items()
            )
        )


#: sentinel distinguishing "not logged" from a logged delete (None)
_MISSING: Any = object()


class ExpiryWheel:
    """A coarse timing wheel over 32-byte name tokens.

    ``schedule(token, expiry)`` files the token in the bucket for
    ``floor(expiry / granularity)``; ``expired(now)`` yields every
    token in buckets whose slot has *fully* elapsed.  Tokens are
    advisory: the caller re-checks the authoritative expiry and
    re-files entries that were refreshed since scheduling (a refreshed
    entry's new bucket is strictly in the future, so one purge pass
    terminates).  A token may therefore fire up to ``granularity``
    late — the exactness lives in the table, the wheel only bounds
    *when* dead entries get reclaimed.
    """

    __slots__ = ("granularity", "_buckets", "_heap")

    def __init__(self, granularity: float = 1.0):
        if granularity <= 0:
            raise ValueError("granularity must be positive")
        self.granularity = granularity
        self._buckets: dict[int, bytearray] = {}
        self._heap: list[int] = []

    def schedule(self, token: bytes, expiry: float) -> None:
        """File *token* to fire once *expiry* has fully elapsed."""
        if len(token) != KEY_BYTES:
            raise ValueError("wheel tokens must be 32 bytes")
        slot = int(expiry // self.granularity)
        bucket = self._buckets.get(slot)
        if bucket is None:
            bucket = self._buckets[slot] = bytearray()
            heapq.heappush(self._heap, slot)
        bucket += token

    def next_deadline(self) -> float | None:
        """When the earliest bucket becomes purgeable (None if empty)."""
        if not self._heap:
            return None
        return (self._heap[0] + 1) * self.granularity

    def expired(self, now: float) -> Iterator[bytes]:
        """Yield (and consume) every token whose slot has elapsed."""
        heap = self._heap
        granularity = self.granularity
        while heap and (heap[0] + 1) * granularity <= now:
            slot = heapq.heappop(heap)
            bucket = self._buckets.pop(slot, b"")
            for off in range(0, len(bucket), KEY_BYTES):
                yield bytes(bucket[off : off + KEY_BYTES])

    def clear(self) -> None:
        """Drop all scheduled tokens."""
        self._buckets.clear()
        self._heap.clear()

    def __len__(self) -> int:
        """Scheduled token count (stale duplicates included)."""
        return sum(len(b) for b in self._buckets.values()) // KEY_BYTES

    def memory_bytes(self) -> int:
        """Approximate resident bytes of buckets + heap."""
        return (
            sys.getsizeof(self._buckets)
            + sys.getsizeof(self._heap)
            + sum(sys.getsizeof(b) for b in self._buckets.values())
        )


_FIB_VALUE = struct.Struct("<Id")  # (next-hop index u32, expiry f64)


class CompactFib:
    """The router's route cache: ``GdpName -> (next-hop node, expiry)``.

    Keys live in a :class:`PackedMap` (44 packed bytes per route:
    32-byte name + 4-byte interned next-hop index + 8-byte expiry);
    next-hop nodes are interned once per neighbor.  Every insert files
    the name on an :class:`ExpiryWheel`, and ``maybe_purge()`` — an
    O(1) head check the router runs on install activity — physically
    reclaims expired entries instead of leaving them to rot until a
    lookup happens to touch them.

    The mapping surface mirrors the plain dict it replaces, so the
    simtest oracles and existing tests (``fib[name]``, ``name in fib``,
    ``fib.items()``) keep working unchanged.
    """

    __slots__ = ("_map", "_wheel", "_clock", "_hops", "_hop_index", "purged")

    def __init__(self, *, clock: Callable[[], float] | None = None):
        self._map = PackedMap(_FIB_VALUE.size)
        self._wheel = ExpiryWheel()
        self._clock = clock or (lambda: 0.0)
        #: interned next-hop nodes (index -> node; id(node) -> index)
        self._hops: list[Any] = []
        self._hop_index: dict[int, int] = {}
        #: total entries physically reclaimed by the wheel
        self.purged = 0

    # -- dict-compatible surface -----------------------------------------

    def __setitem__(self, name: GdpName, value: tuple[Any, float]) -> None:
        node, expiry = value
        idx = self._hop_index.get(id(node))
        if idx is None:
            idx = len(self._hops)
            self._hops.append(node)
            self._hop_index[id(node)] = idx
        self._map.set(name.raw, _FIB_VALUE.pack(idx, expiry))
        self._wheel.schedule(name.raw, expiry)

    def get(self, name: GdpName, default: Any = None) -> Any:
        packed = self._map.get(name.raw)
        if packed is None:
            return default
        idx, expiry = _FIB_VALUE.unpack(packed)
        return (self._hops[idx], expiry)

    def __getitem__(self, name: GdpName) -> tuple[Any, float]:
        value = self.get(name)
        if value is None:
            raise KeyError(name)
        return value

    def __delitem__(self, name: GdpName) -> None:
        if not self._map.delete(name.raw):
            raise KeyError(name)

    def pop(self, name: GdpName, default: Any = None) -> Any:
        packed, slot = self._map._find(name.raw)
        if packed is None:
            return default
        self._map._delete_at(name.raw, slot)
        idx, expiry = _FIB_VALUE.unpack(packed)
        return (self._hops[idx], expiry)

    def __contains__(self, name: GdpName) -> bool:
        return self._map.get(name.raw) is not None

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self) -> Iterator[GdpName]:
        return iter(self.keys())

    def keys(self) -> Iterable[GdpName]:
        """All cached names."""
        return (GdpName(raw) for raw in self._map.keys())

    def items(self) -> Iterable[tuple[GdpName, tuple[Any, float]]]:
        """All (name, (next-hop, expiry)) pairs."""
        hops = self._hops
        for raw, packed in self._map.items():
            idx, expiry = _FIB_VALUE.unpack(packed)
            yield GdpName(raw), (hops[idx], expiry)

    def clear(self) -> None:
        """Drop every cached route (the wheel's stale tokens become
        no-ops on their next purge pass)."""
        self._map.clear()
        self._wheel.clear()

    # -- lease-wheel purge -----------------------------------------------

    def maybe_purge(self, now: float | None = None) -> int:
        """O(1) head check; runs a purge pass only when the earliest
        wheel bucket has elapsed.  Returns entries reclaimed."""
        if now is None:
            now = self._clock()
        deadline = self._wheel.next_deadline()
        if deadline is None or deadline > now:
            return 0
        return self.purge_expired(now)

    def purge_expired(self, now: float | None = None) -> int:
        """Reclaim every entry whose lease elapsed; cost is proportional
        to the tokens processed, never the table size."""
        if now is None:
            now = self._clock()
        reclaimed = 0
        table = self._map
        wheel = self._wheel
        for token in wheel.expired(now):
            packed, slot = table._find(token)
            if packed is None:
                continue  # already dropped/replaced: stale token
            expiry = _FIB_VALUE.unpack(packed)[1]
            if expiry <= now:
                table._delete_at(token, slot)
                reclaimed += 1
            else:
                wheel.schedule(token, expiry)  # refreshed since filing
        self.purged += reclaimed
        return reclaimed

    def memory_bytes(self) -> int:
        """Approximate resident bytes of map + wheel + hop intern."""
        return (
            self._map.memory_bytes()
            + self._wheel.memory_bytes()
            + sys.getsizeof(self._hops)
            + sys.getsizeof(self._hop_index)
        )

    def __repr__(self) -> str:
        return f"CompactFib(routes={len(self)}, purged={self.purged})"
