"""ECDSA over P-256 with RFC 6979 deterministic nonces.

Deterministic nonces make signing reproducible (important for tests and
for replayable simulations) and eliminate the classic nonce-reuse key
leak.  Signatures are encoded as fixed-width 64-byte ``r || s`` with the
low-S normalization, so each message/key pair has exactly one valid
encoding produced by this signer.  Verification accepts any valid ``s``
by default; passing ``require_low_s=True`` additionally rejects the
high-S malleation (strict mode — used by the simtest oracles, where any
signature *we* did not produce in canonical form is suspect).

Hot-path notes: signing uses the fixed-base comb behind
:func:`ec.scalar_mult`; verification computes ``u1*G + u2*Q`` in Jacobian
form (:func:`ec._double_scalar_jacobian`) and compares
``r`` against the Jacobian result directly, avoiding the final field
inversion entirely.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

from repro.crypto import ec
from repro.errors import SignatureError

__all__ = ["sign", "verify", "verify_prehashed", "is_low_s", "SIGNATURE_LEN"]

SIGNATURE_LEN = 64
_ORDER_BYTES = 32


def _bits2int(data: bytes) -> int:
    """RFC 6979 bits2int for a 256-bit order."""
    value = int.from_bytes(data, "big")
    excess = len(data) * 8 - 256
    if excess > 0:
        value >>= excess
    return value


def _int2octets(value: int) -> bytes:
    return value.to_bytes(_ORDER_BYTES, "big")


def _bits2octets(data: bytes) -> bytes:
    value = _bits2int(data) % ec.N
    return _int2octets(value)


def _rfc6979_nonce(private_key: int, digest: bytes) -> int:
    """Deterministic nonce per RFC 6979 §3.2 with HMAC-SHA256."""
    holder = b"\x01" * 32
    key = b"\x00" * 32
    seed = _int2octets(private_key) + _bits2octets(digest)
    key = _hmac.new(key, holder + b"\x00" + seed, hashlib.sha256).digest()
    holder = _hmac.new(key, holder, hashlib.sha256).digest()
    key = _hmac.new(key, holder + b"\x01" + seed, hashlib.sha256).digest()
    holder = _hmac.new(key, holder, hashlib.sha256).digest()
    while True:
        holder = _hmac.new(key, holder, hashlib.sha256).digest()
        k = _bits2int(holder)
        if 1 <= k < ec.N:
            return k
        key = _hmac.new(key, holder + b"\x00", hashlib.sha256).digest()
        holder = _hmac.new(key, holder, hashlib.sha256).digest()


def sign(private_key: int, message: bytes) -> bytes:
    """Sign *message* (hashed internally with SHA-256); returns 64-byte
    ``r || s`` with low-S normalization."""
    if not 1 <= private_key < ec.N:
        raise SignatureError("private key out of range")
    digest = hashlib.sha256(message).digest()
    z = _bits2int(digest)
    while True:
        k = _rfc6979_nonce(private_key, digest)
        point = ec.scalar_mult(k, ec.GENERATOR)
        r = point.x % ec.N
        if r == 0:
            digest = hashlib.sha256(digest).digest()
            continue
        k_inv = pow(k, -1, ec.N)
        s = k_inv * (z + r * private_key) % ec.N
        if s == 0:
            digest = hashlib.sha256(digest).digest()
            continue
        if s > ec.N // 2:
            s = ec.N - s
        return _int2octets(r) + _int2octets(s)


def is_low_s(signature: bytes) -> bool:
    """Whether a 64-byte signature's ``s`` half is in canonical low-S
    form (what :func:`sign` emits)."""
    if len(signature) != SIGNATURE_LEN:
        return False
    s = int.from_bytes(signature[_ORDER_BYTES:], "big")
    return 1 <= s <= ec.N // 2


def verify_prehashed(
    public_key: ec.Point,
    digest: bytes,
    signature: bytes,
    *,
    require_low_s: bool = False,
) -> bool:
    """Verify against an already-computed SHA-256 *digest* (the caching
    layer hashes the message once for its cache key; this entry point
    lets it avoid hashing twice)."""
    if len(signature) != SIGNATURE_LEN:
        return False
    if public_key.is_infinity or not ec.is_on_curve(public_key):
        return False
    r = int.from_bytes(signature[:_ORDER_BYTES], "big")
    s = int.from_bytes(signature[_ORDER_BYTES:], "big")
    if not (1 <= r < ec.N and 1 <= s < ec.N):
        return False
    if require_low_s and s > ec.N // 2:
        return False
    z = _bits2int(digest)
    s_inv = pow(s, -1, ec.N)
    u1 = z * s_inv % ec.N
    u2 = r * s_inv % ec.N
    X, Y, Z = ec._double_scalar_jacobian(u1, u2, public_key)
    if Z == 0:
        return False
    # r == x(R) mod N without converting R to affine: the affine x is
    # X/Z^2 mod P, and since P < 2N the only candidates for x are r and
    # r + N.  Cross-multiplying avoids the field inversion.
    Z2 = Z * Z % ec.P
    if (r * Z2 - X) % ec.P == 0:
        return True
    return r + ec.N < ec.P and ((r + ec.N) * Z2 - X) % ec.P == 0


def verify(
    public_key: ec.Point,
    message: bytes,
    signature: bytes,
    *,
    require_low_s: bool = False,
) -> bool:
    """Verify a 64-byte ``r || s`` signature; returns ``True``/``False``
    (malformed inputs return ``False`` rather than raising, so callers can
    treat garbage from the network uniformly).  ``require_low_s`` enables
    strict mode: only the canonical low-S encoding is accepted."""
    digest = hashlib.sha256(message).digest()
    return verify_prehashed(
        public_key, digest, signature, require_low_s=require_low_s
    )
