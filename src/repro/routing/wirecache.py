"""Interned wire blobs for repeated delegation evidence (§VII).

A server advertising 10k capsule names produces 10k RouteEntries that
all carry the *same* principal metadata, RtCert, and router metadata —
only the per-name service chain differs.  Encoding that shared evidence
into every entry's wire form (the DHT tier stores wire forms) would
re-serialize identical certificates 10k times and decode 10k distinct
copies on the way back.

This module interns evidence at the canonical-bytes level:

- :func:`encode_blob` returns the canonical encoded ``bytes`` of an
  object's wire form, cached per live object, to embed in any number
  of entry wires.
- :func:`decode_blob` decodes a blob back to an evidence object,
  keyed by the exact bytes — so all 10k entries fetched from the DHT
  share *one* decoded Metadata/RtCert object instead of 10k copies.

Both caches are bounded LRU; eviction only costs a future re-encode.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro import encoding

__all__ = ["encode_blob", "decode_blob", "intern_stats", "clear_intern_caches"]

#: bounded size of each LRU cache (entries)
INTERN_CACHE_MAX = 4096

#: id(obj) -> (obj, blob); the strong reference keeps the id stable
_by_object: "OrderedDict[int, tuple[Any, bytes]]" = OrderedDict()
#: (kind, blob) -> decoded object
_by_blob: "OrderedDict[tuple[str, bytes], Any]" = OrderedDict()

_stats = {
    "encode_hits": 0,
    "encode_misses": 0,
    "decode_hits": 0,
    "decode_misses": 0,
}


def encode_blob(kind: str, obj: Any) -> bytes:
    """The canonical encoded bytes of ``obj.to_wire()``, interned per
    live object (*kind* namespaces the reverse mapping)."""
    key = id(obj)
    hit = _by_object.get(key)
    if hit is not None and hit[0] is obj:
        _stats["encode_hits"] += 1
        _by_object.move_to_end(key)
        return hit[1]
    _stats["encode_misses"] += 1
    blob = encoding.encode(obj.to_wire())
    _by_object[key] = (obj, blob)
    if len(_by_object) > INTERN_CACHE_MAX:
        _by_object.popitem(last=False)
    # Seed the reverse direction so a local round trip (store then
    # fetch) decodes straight back to the object we already hold.
    blob_key = (kind, blob)
    if blob_key not in _by_blob:
        _by_blob[blob_key] = obj
        if len(_by_blob) > INTERN_CACHE_MAX:
            _by_blob.popitem(last=False)
    return blob


def decode_blob(kind: str, blob: bytes, decoder: Callable[[Any], Any]) -> Any:
    """Decode an evidence blob, interned by its exact bytes: repeated
    blobs (the same RtCert inside 10k entries) decode once and share
    one object.  *decoder* maps the decoded wire form to the object."""
    key = (kind, bytes(blob))
    obj = _by_blob.get(key)
    if obj is not None:
        _stats["decode_hits"] += 1
        _by_blob.move_to_end(key)
        return obj
    _stats["decode_misses"] += 1
    obj = decoder(encoding.decode(blob))
    _by_blob[key] = obj
    if len(_by_blob) > INTERN_CACHE_MAX:
        _by_blob.popitem(last=False)
    _by_object[id(obj)] = (obj, key[1])
    if len(_by_object) > INTERN_CACHE_MAX:
        _by_object.popitem(last=False)
    return obj


def intern_stats() -> dict:
    """Hit/miss counters plus current cache sizes (for tests/benches)."""
    return {
        **_stats,
        "encode_cached": len(_by_object),
        "decode_cached": len(_by_blob),
    }


def clear_intern_caches() -> None:
    """Reset both caches and the counters (test isolation)."""
    _by_object.clear()
    _by_blob.clear()
    for key in _stats:
        _stats[key] = 0
