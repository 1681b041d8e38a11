"""Memory-compact routing tables for million-name namespaces (§VII).

The paper's scaling claim — a flat 256-bit namespace resolved through
hierarchical GLookup — dies in Python if every table is a dict of
objects: a ``dict[GdpName, tuple]`` costs ~300 bytes per entry before
any evidence is attached.  This module provides the packed substrate
both tables share:

:class:`PackedMap`
    32-byte keys kept sorted in pages of a few thousand keys — each
    key's first 8 bytes in an ``array('Q')`` of big-endian ints,
    searched by ``bisect`` in C, the other 24 bytes and the fixed-width
    values in one ``bytearray`` — plus a small dict write-log merged in
    batches.  A merge rewrites one page at a time at its exact size, so
    it never holds a second copy of the table.

:class:`ExpiryWheel`
    Lease expirations bucketed by coarse time slot, each bucket a
    packed ``bytearray`` of fixed-width tokens with an int-heap over
    the slot indices.  Purging processes only the buckets whose slot
    has fully elapsed — O(expired-processed), never O(table).  Both
    tables file a name's 8-byte prefix when the name is new or its lease
    moves to an earlier slot, and a purge meeting a live name files it
    again: one token per name keeps 1M-name purges affordable.

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

#: write-log size that triggers a merge into the sorted base pages
DEFAULT_MERGE_THRESHOLD = 8192
#: keys per page a merge aims for; it cuts a page grown past twice this
PAGE_KEYS = 2048

#: slot of a key the write log holds; a base slot is ``page << 32 | index``
_IN_LOG = -2
#: the page a key below every page head would be merged into
_NO_PAGE = (array("Q"), bytearray())


def _search(prefixes: array, blob, prefix: int, key: bytes, lo: int = 0):
    """``(idx, found)``: the first page index >= *lo* with a key >= *key*."""
    idx = bisect_left(prefixes, prefix, lo)
    if idx == len(prefixes) or prefixes[idx] != prefix:
        return idx, False
    suffix = key[PREFIX_BYTES:]
    if blob.startswith(suffix, idx * SUFFIX_BYTES):
        return idx, True
    # Several keys share this prefix: binary search their suffixes.
    end = bisect_right(prefixes, prefix, idx)
    at = lambda i: blob[i * SUFFIX_BYTES : (i + 1) * SUFFIX_BYTES]  # noqa: E731
    idx = bisect_left(range(end), suffix, idx, key=at)
    return idx, idx < end and at(idx) == suffix


class PackedMap:
    """A sorted packed map: 32-byte keys -> fixed-width packed values.

    Merged keys live in sorted pages ``(prefixes, blob)``: each key's
    first 8 bytes as a big-endian int, then the other 24 bytes of each
    key and the values (updated in place) — (prefix, suffix) order is
    byte order.  Keys sharing a prefix (never digests, always small-int
    test keys) never span two pages and fall back to a suffix search.
    Writes land in ``_log`` (``None`` marks a pending delete); ``_fresh``
    indexes by prefix the logged keys the pages lack.  A full log merges
    only as a new key is written, which moves no page slot: a slot that
    a search returned stays valid through deletes and updates.
    """

    __slots__ = (
        "value_size", "merge_threshold", "_heads", "_pages", "_log", "_fresh", "_count"
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
        self._fresh: dict[int, Any] = {}  # prefix -> key, or a dict of keys
        self.clear()

    # -- search over the packed base pages -------------------------------

    def _find(self, key: bytes) -> tuple[bytes | None, int]:
        """``(value, slot)`` for *key*; the slot (a base slot, ``_IN_LOG``
        or -1) spares :meth:`_set_at` / :meth:`_delete_at` a search."""
        logged = self._log.get(key, _MISSING)
        if logged is not _MISSING:
            return logged, _IN_LOG  # None for a pending delete
        prefix = _PREFIX.unpack_from(key)[0]
        p = bisect_right(self._heads, prefix) - 1
        prefixes, blob = self._pages[p] if p >= 0 else _NO_PAGE
        idx = bisect_left(prefixes, prefix)
        if idx == len(prefixes) or prefixes[idx] != prefix:
            return None, -1
        if not blob.startswith(key[PREFIX_BYTES:], idx * SUFFIX_BYTES):
            idx, found = _search(prefixes, blob, prefix, key, idx)
            if not found:
                return None, -1
        off = len(prefixes) * SUFFIX_BYTES + idx * self.value_size
        return bytes(blob[off : off + self.value_size]), p << 32 | idx

    def _set_at(self, key: bytes, value: bytes, slot: int) -> None:
        """:meth:`set` at the slot :meth:`_find` returned."""
        if slot >= 0:
            # In-place value update: the cheap lease-refresh path.
            prefixes, blob = self._pages[slot >> 32]
            off = len(prefixes) * SUFFIX_BYTES + (slot & 0xFFFFFFFF) * self.value_size
            blob[off : off + self.value_size] = value
            return
        if slot == -1:  # a new key: merge a full log, index the key for named()
            if len(self._log) >= self.merge_threshold:
                self._merge()
            prefix = _PREFIX.unpack_from(key)[0]
            have = self._fresh.setdefault(prefix, key)
            if have is not key:  # keys sharing a prefix
                if type(have) is not dict:
                    have = self._fresh[prefix] = {have: None}
                have[key] = None
        if slot == -1 or self._log[key] is None:  # new, or a pending delete
            self._count += 1
        self._log[key] = value

    def _delete_at(self, key: bytes, slot: int) -> bool:
        """:meth:`delete` at the slot :meth:`_find` returned."""
        if slot == -1 or (slot == _IN_LOG and self._log[key] is None):
            return False  # absent, or already a pending delete
        self._log[key] = None  # the merge drops it, in the pages or not
        self._count -= 1
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

    def named(self, head: bytes) -> list[tuple[bytes, bytes, int]]:
        """``(key, value, slot)`` of every live key whose first 8 bytes
        are *head* — what a wheel token resolves to."""
        log, out, vsz = self._log, [], self.value_size
        prefix = _PREFIX.unpack(head)[0]
        p = bisect_right(self._heads, prefix) - 1
        prefixes, blob = self._pages[p] if p >= 0 else _NO_PAGE
        idx, vals = bisect_left(prefixes, prefix), len(prefixes) * SUFFIX_BYTES
        while idx < len(prefixes) and prefixes[idx] == prefix:
            key = head + blob[idx * SUFFIX_BYTES : (idx + 1) * SUFFIX_BYTES]
            value = log.get(key, _MISSING)
            if value is _MISSING:
                value = bytes(blob[vals + idx * vsz : vals + (idx + 1) * vsz])
                out.append((key, value, p << 32 | idx))
            elif value is not None:
                out.append((key, value, _IN_LOG))
            idx += 1
        fresh = self._fresh.get(prefix, ())
        for key in (fresh,) if type(fresh) is bytes else fresh:
            if log.get(key) is not None:
                out.append((key, log[key], _IN_LOG))
        return out

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self._count

    def keys(self) -> Iterator[bytes]:
        """All live keys (merged order first, then log inserts)."""
        return (key for key, _ in self.items())

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """All live (key, packed value) pairs."""
        log, vsz = self._log, self.value_size
        for prefixes, blob in self._pages:
            vals = len(prefixes) * SUFFIX_BYTES
            for idx, prefix in enumerate(prefixes):
                off = idx * SUFFIX_BYTES
                key = _PREFIX.pack(prefix) + blob[off : off + SUFFIX_BYTES]
                if key not in log:
                    yield key, bytes(blob[vals + idx * vsz : vals + (idx + 1) * vsz])
        for key, value in log.items():
            if value is not None:
                yield key, value

    def clear(self) -> None:
        """Drop everything."""
        self._heads: tuple[int, ...] = ()
        self._pages: tuple[tuple[array, bytearray], ...] = ()
        self._log.clear()
        self._fresh.clear()
        self._count = 0

    def compact(self) -> None:
        """Force-merge the write log into the sorted base pages."""
        self._merge()

    def _merge(self) -> None:
        log = self._log
        if not log:
            return
        keys = sorted(log)
        old = list(self._pages) or [_NO_PAGE]
        heads, pages, start = self._heads, [], 0
        self._pages = ()
        for p in range(len(old)):
            page, old[p] = old[p], None  # freed once rewritten
            end = len(keys)  # this page's keys sort below the next head
            if p + 1 < len(heads):
                end = bisect_left(keys, _PREFIX.pack(heads[p + 1]), start)
            if start == end:
                pages.append(page)
            else:
                pages.extend(self._rewrite(*page, keys[start:end]))
            start = end
        self._pages = tuple(page for page in pages if page[0])
        self._heads = tuple(page[0][0] for page in self._pages)
        log.clear()
        self._fresh.clear()

    def _rewrite(self, prefixes: array, blob: bytearray, keys: list) -> list:
        """One page with its sorted log *keys* applied, as exact-size
        pages: one grown past twice :data:`PAGE_KEYS` is cut at prefix ends."""
        log, vsz, n = self._log, self.value_size, len(prefixes)
        at, found_at, pos, total = [], [], 0, n  # per log key: where, and if found
        for key in keys:  # one search per log key
            idx, found = _search(prefixes, blob, _PREFIX.unpack_from(key)[0], key, pos)
            at.append(idx)
            found_at.append(found)
            total += (log[key] is not None) - found
            pos = idx + found
        parts = total // PAGE_KEYS if total > 2 * PAGE_KEYS else 1
        cuts = {k * n // parts for k in range(1, parts)} - {0}
        cuts = sorted({bisect_right(prefixes, prefixes[c - 1], c) for c in cuts} - {n})
        # Pieces are bytes copies: array or memoryview slices are
        # GC-tracked, and one per log key would trigger collections.
        pre, vals, out, pos, i = prefixes.tobytes(), n * SUFFIX_BYTES, [], 0, 0
        for cut in cuts + [n]:  # keys[i:j] sort below the prefix at the cut
            j = len(keys)
            if cut < n:
                j = bisect_left(keys, _PREFIX.pack(prefixes[cut]), i)
            out_p, out_s, out_v = [], [], []  # prefix, suffix and value pieces
            run = zip(at[i:j] + [cut], found_at[i:j] + [0], keys[i:j] + [b""])
            for idx, found, key in run:
                if idx > pos:  # the untouched keys before this one
                    out_p.append(pre[pos * PREFIX_BYTES : idx * PREFIX_BYTES])
                    out_s.append(blob[pos * SUFFIX_BYTES : idx * SUFFIX_BYTES])
                    out_v.append(blob[vals + pos * vsz : vals + idx * vsz])
                pos = idx + found  # a found key is replaced or deleted
                if log.get(key) is not None:
                    out_p.append(_NATIVE_Q.pack(_PREFIX.unpack_from(key)[0]))
                    out_s.append(key[PREFIX_BYTES:])
                    out_v.append(log[key])
            i = j
            # Sized up front: array('Q', bytes) over-allocates by 1/16.
            page = array("Q", [0]) * (sum(map(len, out_p)) // PREFIX_BYTES)
            memoryview(page).cast("B")[:] = b"".join(out_p)
            out_s += out_v
            out.append((page, bytearray().join(out_s)))
        return out

    def memory_bytes(self) -> int:
        """Approximate resident bytes of the packed state (heads, pages,
        the write log and its prefix index)."""
        size = sys.getsizeof
        return sum(
            [size(self._heads), size(self._pages), size(self._log), size(self._fresh)]
            + [size(page) + size(page[0]) + size(page[1]) for page in self._pages]
            + [size(k) + size(v) * (v is not None) for k, v in self._log.items()]
            + [size(p) + size(v) * (type(v) is dict) for p, v in self._fresh.items()]
            + list(map(size, self._heads))
        )


#: sentinel distinguishing "not logged" from a logged delete (None)
_MISSING: Any = object()


class ExpiryWheel:
    """A coarse timing wheel over fixed-width tokens (32-byte names by
    default; the packed tables file 8-byte prefixes).

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

    __slots__ = ("granularity", "token_bytes", "_buckets", "_heap")

    def __init__(self, granularity: float = 1.0, token_bytes: int = KEY_BYTES):
        if granularity <= 0:
            raise ValueError("granularity must be positive")
        self.granularity = granularity
        self.token_bytes = token_bytes
        self._buckets: dict[int, bytearray] = {}
        self._heap: list[int] = []

    def schedule(self, token: bytes, expiry: float, filed: float | None = None) -> None:
        """File *token* to fire once *expiry* has fully elapsed, unless
        it is filed already at *filed*, in a slot no later."""
        if len(token) != self.token_bytes:
            raise ValueError(f"wheel tokens must be {self.token_bytes} bytes")
        slot = int(expiry // self.granularity)
        if filed is not None and filed // self.granularity <= slot:
            return
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
        heap, granularity, width = self._heap, self.granularity, self.token_bytes
        while heap and (heap[0] + 1) * granularity <= now:
            slot = heapq.heappop(heap)
            bucket = bytes(self._buckets.pop(slot, b""))
            for off in range(0, len(bucket), width):
                yield bucket[off : off + width]

    def clear(self) -> None:
        """Drop all scheduled tokens."""
        self._buckets.clear()
        self._heap.clear()

    def __len__(self) -> int:
        """Scheduled token count (stale duplicates included)."""
        return sum(len(b) for b in self._buckets.values()) // self.token_bytes

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
    next-hop nodes are interned once per neighbor.  A new name (or one
    whose lease moves to an earlier slot) files its 8-byte prefix on an
    :class:`ExpiryWheel`, and ``maybe_purge()`` — an
    O(1) head check the router runs on install activity — physically
    reclaims expired entries instead of leaving them to rot until a
    lookup happens to touch them.

    The mapping surface mirrors the plain dict it replaces, so the
    simtest oracles and existing tests (``fib[name]``, ``name in fib``,
    ``fib.items()``) keep working unchanged.
    """

    __slots__ = ("_map", "_wheel", "_clock", "_hops", "_hop_index")

    def __init__(self, *, clock: Callable[[], float] | None = None):
        self._map = PackedMap(_FIB_VALUE.size)
        self._wheel = ExpiryWheel(token_bytes=PREFIX_BYTES)
        self._clock = clock or (lambda: 0.0)
        #: interned next-hop nodes (index -> node; id(node) -> index)
        self._hops: list[Any] = []
        self._hop_index: dict[int, int] = {}

    # -- dict-compatible surface -----------------------------------------

    def __setitem__(self, name: GdpName, value: tuple[Any, float]) -> None:
        node, expiry = value
        idx = self._hop_index.get(id(node))
        if idx is None:
            idx = len(self._hops)
            self._hops.append(node)
            self._hop_index[id(node)] = idx
        packed, slot = self._map._find(name.raw)
        self._map._set_at(name.raw, _FIB_VALUE.pack(idx, expiry), slot)
        filed = None if packed is None else _FIB_VALUE.unpack(packed)[1]
        self._wheel.schedule(name.raw[:PREFIX_BYTES], expiry, filed)

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
            soonest = None  # the earliest live expiry under this prefix
            for key, packed, slot in table.named(token):
                expiry = _FIB_VALUE.unpack(packed)[1]
                if expiry <= now:
                    table._delete_at(key, slot)
                    reclaimed += 1
                elif soonest is None or expiry < soonest:
                    soonest = expiry
            if soonest is not None:  # refreshed since filing
                wheel.schedule(token, soonest)
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
        return f"CompactFib(routes={len(self)})"
