"""Seeded input generators.

Every input the program sees — payload bytes, read positions, hot-key
choices, name ids — is a pure function of ``(seed, stream, index)``, so
the same seed reproduces the same op list and a result oracle can
regenerate the expected payload of any record without storing it.
"""

from __future__ import annotations

import hashlib
import random


def payload(seed: int, stream: str, index: int, size: int) -> bytes:
    """*size* deterministic pseudo-random bytes for item *index* of
    *stream* (random access: no generator state to replay)."""
    key = f"{seed}/{stream}/{index}".encode()
    return hashlib.shake_256(key).digest(size)


def rng(seed: int, stream: str) -> random.Random:
    """A private, seeded random stream named *stream*."""
    return random.Random(f"perf:{seed}:{stream}")


def name_raw(seed: int, index: int) -> bytes:
    """The 32-byte flat name with id *index*."""
    return hashlib.sha256(f"perf-name/{seed}/{index}".encode()).digest()


def digest(items) -> str:
    """Hex digest over an op list (ints, strings, bytes or nested
    lists/tuples of them) — what the tests compare between seeds."""
    h = hashlib.sha256()

    def feed(item) -> None:
        if isinstance(item, (list, tuple)):
            h.update(b"[")
            for sub in item:
                feed(sub)
            h.update(b"]")
        elif isinstance(item, bytes):
            h.update(b"b%d:" % len(item) + item)
        else:
            h.update(repr(item).encode() + b";")

    feed(items)
    return h.hexdigest()
