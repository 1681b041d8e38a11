"""Key-pair objects wrapping the raw ECDSA substrate.

A :class:`SigningKey` is held by writers, owners, servers, and routers; a
:class:`VerifyingKey` travels inside metadata, certificates, and
advertisements.  Verifying keys serialize to the 33-byte SEC1 compressed
form, which is the representation hashed into flat GDP names.
"""

from __future__ import annotations

import hashlib
import secrets
from typing import Optional

from repro.crypto import cache as _cache
from repro.crypto import ec, ecdsa
from repro.errors import SignatureError

__all__ = ["SigningKey", "VerifyingKey", "generate_keypair"]


class VerifyingKey:
    """An ECDSA public key (immutable)."""

    __slots__ = ("_point", "_encoded")

    def __init__(self, point: ec.Point):
        if point.is_infinity or not ec.is_on_curve(point):
            raise SignatureError("invalid public key point")
        self._point = point
        self._encoded = ec.encode_point(point)

    @property
    def point(self) -> ec.Point:
        """The underlying curve point."""
        return self._point

    def to_bytes(self) -> bytes:
        """SEC1 compressed encoding (33 bytes)."""
        return self._encoded

    @classmethod
    def from_bytes(cls, data: bytes) -> "VerifyingKey":
        """Deserialize from bytes; raises on malformed input.  Keys are
        immutable, so each encoding is decompressed once per process."""
        if not isinstance(data, (bytes, bytearray)):  # bytes(an int) allocates
            raise SignatureError(f"public key must be bytes, got {type(data).__name__}")
        try:
            return _cache.intern_key(
                bytes(data), lambda raw: cls(ec.decode_point(raw))
            )
        except ValueError as exc:
            raise SignatureError(f"malformed public key: {exc}") from exc

    def verify(
        self, message: bytes, signature: bytes, *, require_low_s: bool = False
    ) -> bool:
        """True iff *signature* is a valid ECDSA signature on *message*.

        Successful verifications are memoized process-wide on the exact
        ``(key, digest, signature)`` triple (see
        :mod:`repro.crypto.cache`), so anti-entropy merges and repeated
        proof checks never re-ladder a signature already proven good.
        ``require_low_s`` (strict mode) is checked *before* the cache:
        a high-S signature is rejected here even if its triple verified
        under the permissive mode.
        """
        if require_low_s and not ecdsa.is_low_s(signature):
            return False
        digest = hashlib.sha256(message).digest()
        if _cache.verify_cache_hit(self._encoded, digest, signature):
            return True
        _cache.count_verify()
        ok = ecdsa.verify_prehashed(self._point, digest, signature)
        if ok:
            _cache.remember_verified(self._encoded, digest, signature)
        return ok

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VerifyingKey):
            return NotImplemented
        return self._encoded == other._encoded

    def __hash__(self) -> int:
        return hash(self._encoded)

    def __repr__(self) -> str:
        return f"VerifyingKey({self._encoded.hex()[:16]}...)"


class SigningKey:
    """An ECDSA private key with its cached public half."""

    __slots__ = ("_secret", "_public")

    def __init__(self, secret: int):
        if not 1 <= secret < ec.N:
            raise SignatureError("private scalar out of range")
        self._secret = secret
        self._public = VerifyingKey(ec.scalar_mult(secret, ec.GENERATOR))

    @classmethod
    def generate(cls, rng: Optional[secrets.SystemRandom] = None) -> "SigningKey":
        """Generate a fresh key; pass a seeded ``random.Random``-like *rng*
        for reproducible test fixtures."""
        if rng is None:
            secret = secrets.randbelow(ec.N - 1) + 1
        else:
            secret = rng.randrange(1, ec.N)
        return cls(secret)

    @classmethod
    def from_seed(cls, seed: bytes) -> "SigningKey":
        """Derive a key deterministically from *seed* (test fixtures and
        simulation reproducibility; do not use for production keys)."""
        counter = 0
        while True:
            digest = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
            candidate = int.from_bytes(digest, "big")
            if 1 <= candidate < ec.N:
                return cls(candidate)
            counter += 1

    @property
    def public(self) -> VerifyingKey:
        """The corresponding verifying (public) key."""
        return self._public

    def sign(self, message: bytes) -> bytes:
        """Sign *message*; returns the 64-byte ``r || s`` signature."""
        _cache.count_sign()
        signature = ecdsa.sign(self._secret, message)
        # Our own signatures are valid by construction: prime the verify
        # cache so the local round-trip (sign, then validate on insert)
        # costs one ladder, not two.
        _cache.remember_verified(
            self._public.to_bytes(), hashlib.sha256(message).digest(), signature
        )
        return signature

    def to_bytes(self) -> bytes:
        """Raw 32-byte big-endian secret scalar."""
        return self._secret.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "SigningKey":
        """Deserialize from bytes; raises on malformed input."""
        if len(data) != 32:
            raise SignatureError("private key must be 32 bytes")
        return cls(int.from_bytes(data, "big"))

    def __repr__(self) -> str:
        return f"SigningKey(public={self._public.to_bytes().hex()[:16]}...)"


def generate_keypair() -> SigningKey:
    """Convenience wrapper for :meth:`SigningKey.generate`."""
    return SigningKey.generate()
