"""Process-wide bounded caches for the crypto hot path.

Four memoization layers sit here, shared by every subsystem that signs,
verifies, or hashes.  Each key commits to *every* input of the pure
function it short-cuts, so changed content can never inherit an entry:

- the **signature cache**, keyed ``(public key, message digest,
  signature)``: the same triple is re-verified on every anti-entropy
  merge, ``verify_history`` walk, and proof check; one that verified
  once is never re-laddered.  Only *successes* are remembered, so a
  forged signature never becomes a hit — it re-verifies (and fails).
- the **record-digest cache**, keyed on the full header content
  ``(capsule, seqno, payload_hash, pointers)``: ``merge_from``, the
  simtest oracles, proof verification, and storage replay stop
  re-encoding the same immutable objects; tampered content changes the
  key.
- the **key intern**, keyed on the exact SEC1 encoding: decompressing a
  point is a 256-bit modular square root, and one response names the
  same few keys five times.  Only validated points are kept; a
  malformed encoding raises every time.
- the **verified-metadata memo**, keyed ``(name, signature)``, *name*
  being the hash ``Metadata.__init__`` computes locally from the
  received content (never a name the peer supplied), so it commits to
  the properties and the owner key inside them.  Successes only;
  expected-name, expiry and binding checks stay with the caller.

All are LRU-bounded (a long-running server must not grow without bound).
Module-level counters (``crypto.sign``, ``crypto.verify``,
``crypto.verify_cached``, ``crypto.encode``, ``crypto.encode_cached``)
are always collected and can be mirrored into a
:class:`~repro.runtime.metrics.MetricsRegistry` via :func:`bind_metrics`
(``Network.enable_node_metrics`` does, under the ``crypto`` scope);
the last two caches sit in front of verification and count nothing.

:func:`set_accel_enabled` disables the caches *and* the
precomputed-table paths in :mod:`repro.crypto.ec`, forcing the naive
reference implementations (used by benchmarks to measure the speedup and
by property tests to cross-check bit-identity).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Optional

__all__ = [
    "LruCache",
    "accel_enabled",
    "set_accel_enabled",
    "verify_cache_hit",
    "remember_verified",
    "record_digest",
    "counters",
    "bind_metrics",
    "reset",
]


class LruCache:
    """A dict with least-recently-used eviction at *maxsize* entries."""

    __slots__ = ("maxsize", "_data")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get(self, key: Any) -> Any:
        """The cached value (refreshing recency), or ``None``."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: Any, value: Any) -> None:
        """Insert/overwrite *key*, evicting the oldest entry if full."""
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.maxsize:
            data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


_enabled = True

VERIFY_CACHE_SIZE = 8192
DIGEST_CACHE_SIZE = 16384
EVIDENCE_CACHE_SIZE = 4096

_VERIFIED: LruCache = LruCache(VERIFY_CACHE_SIZE)
_DIGESTS: LruCache = LruCache(DIGEST_CACHE_SIZE)
_KEYS: LruCache = LruCache(EVIDENCE_CACHE_SIZE)
_METADATA: LruCache = LruCache(EVIDENCE_CACHE_SIZE)
_CACHES = (_VERIFIED, _DIGESTS, _KEYS, _METADATA)

_COUNTERS: dict[str, int] = {
    "crypto.sign": 0,
    "crypto.verify": 0,
    "crypto.verify_cached": 0,
    "crypto.encode": 0,
    "crypto.encode_cached": 0,
}

#: optional mirror into a MetricsRegistry scope (last binding wins)
_sink = None


def accel_enabled() -> bool:
    """Whether the accelerated/cached crypto paths are active."""
    return _enabled


def set_accel_enabled(flag: bool) -> None:
    """Force the accelerated (True) or naive (False) crypto paths;
    disabling also clears the caches so stale hits cannot leak back in
    when re-enabled mid-test."""
    global _enabled
    _enabled = bool(flag)
    if not _enabled:
        for cache in _CACHES:
            cache.clear()


def bind_metrics(node_metrics) -> None:
    """Mirror the crypto counters into *node_metrics* (a
    :class:`~repro.runtime.metrics.NodeMetrics`, typically
    ``registry.node("crypto")``); pass ``None`` to unbind."""
    global _sink
    _sink = node_metrics


def _inc(name: str) -> None:
    _COUNTERS[name] += 1
    if _sink is not None:
        _sink.counter(name).inc()


def count_sign() -> None:
    """Record one ECDSA signing operation."""
    _inc("crypto.sign")


def counters() -> dict[str, int]:
    """A snapshot of the module counters."""
    return dict(_COUNTERS)


def reset() -> None:
    """Clear caches and zero counters (test isolation)."""
    for cache in _CACHES:
        cache.clear()
    for name in _COUNTERS:
        _COUNTERS[name] = 0


# -- signature memoization ---------------------------------------------------


def verify_cache_hit(pub: bytes, digest: bytes, signature: bytes) -> bool:
    """True iff this exact triple already verified successfully this
    process.  Counts a ``crypto.verify_cached`` hit; a miss counts
    nothing (the caller counts the real verification)."""
    if not _enabled:
        return False
    if _VERIFIED.get((pub, digest, signature)):
        _inc("crypto.verify_cached")
        return True
    return False


def remember_verified(pub: bytes, digest: bytes, signature: bytes) -> None:
    """Remember a *successful* verification.  Failures are deliberately
    never cached — correctness does not depend on it (the triple keys the
    exact inputs) but caching only successes makes "a cache can never
    accept a forgery" hold by construction."""
    if _enabled:
        _VERIFIED.put((pub, digest, signature), True)


def count_verify() -> None:
    """Record one real (non-cached) ECDSA verification."""
    _inc("crypto.verify")


def intern_key(encoded: bytes, decode: Callable[[bytes], Any]) -> Any:
    """``decode(encoded)``, run once per distinct encoding.  *decode*
    raises on malformed input, so only validated keys are kept."""
    key = _KEYS.get(encoded) if _enabled else None
    if key is None:
        key = decode(encoded)
        if _enabled:
            _KEYS.put(encoded, key)
    return key


def metadata_verified(name_raw: bytes, signature: bytes) -> bool:
    """True iff metadata named *name_raw* verified under *signature*."""
    return _enabled and _METADATA.get((name_raw, signature)) is True


def remember_metadata(name_raw: bytes, signature: bytes) -> None:
    """Remember a *successful* metadata verification."""
    if _enabled:
        _METADATA.put((name_raw, signature), True)


# -- record-digest memoization ------------------------------------------------


def _freeze(value: Any) -> Optional[tuple]:
    """Recursively convert wire lists to hashable tuples; ``None`` when
    the value contains something unhashable-by-content (caller then
    bypasses the cache)."""
    if isinstance(value, (list, tuple)):
        out = []
        for item in value:
            frozen = _freeze(item)
            if frozen is None:
                return None
            out.append(frozen)
        return ("L", tuple(out))
    if isinstance(value, (bytes, int, str, bool)) or value is None:
        return ("V", value)
    return None


def record_digest(
    capsule_raw: bytes, seqno: int, payload_hash: bytes, pointers: list
) -> bytes:
    """The domain-separated digest of a record header, memoized on the
    full header content (so one record is encoded once per process, no
    matter how many replicas, proofs, or oracles touch it)."""
    from repro.crypto.hashing import hash_value

    key = None
    if _enabled:
        frozen = _freeze(pointers)
        if frozen is not None:
            key = (capsule_raw, seqno, payload_hash, frozen)
            cached = _DIGESTS.get(key)
            if cached is not None:
                _inc("crypto.encode_cached")
                return cached
    _inc("crypto.encode")
    digest = hash_value(
        "gdp.record", [capsule_raw, seqno, payload_hash, pointers]
    )
    if key is not None:
        _DIGESTS.put(key, digest)
    return digest
