"""Elliptic-curve group arithmetic over NIST P-256 (secp256r1).

The paper's signatures are ECDSA ("because of smaller key sizes", §V);
this module is the from-scratch substrate beneath :mod:`repro.crypto.ecdsa`.
It implements constant-structure (not constant-time — this is a research
reproduction, not a production TLS stack) point arithmetic using Jacobian
projective coordinates for speed, with affine conversion only at the edges.

Only the operations ECDSA needs are exposed: scalar multiplication,
double-scalar multiplication (for verification), point addition, and
point (de)serialization in SEC1 form.

Acceleration layer
------------------
Profiling shows ``scalar_mult`` dominating end-to-end wall-clock (every
append heartbeat, read proof, advertisement, and delegation check bottoms
out here), so two precomputation strategies sit behind the public entry
points:

- a process-wide *fixed-base comb* for the generator (built lazily on
  first use): with width ``w`` the table holds ``m * 2^(w*i) * G`` for
  every window ``i`` and digit ``m``, turning a 256-doubling ladder into
  ``ceil(256/w)`` mixed additions with no doublings at all;
- bounded per-point comb tables for *hot* public keys (writer keys,
  router identities verify thousands of times) — built once a point has
  been used :data:`PROMOTE_AFTER` times, evicted LRU.

A verify against a key with no comb yet (``u1*G + u2*Q``) takes the base
comb for ``u1*G`` and the reference 4-bit ladder (:func:`_ladder`) for
``u2*Q``.  Every path is bit-identical to the reference
(:func:`scalar_mult_naive`), which property tests cross-check;
:func:`repro.crypto.cache.set_accel_enabled` forces the reference paths.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.crypto import cache as _cache

__all__ = [
    "P",
    "N",
    "Gx",
    "Gy",
    "Point",
    "INFINITY",
    "GENERATOR",
    "point_add",
    "scalar_mult",
    "scalar_mult_naive",
    "double_scalar_base_mult",
    "is_on_curve",
    "encode_point",
    "decode_point",
]

# NIST P-256 domain parameters (FIPS 186-4, D.1.2.3).
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
Gx = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
Gy = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5


class Point:
    """An affine point on P-256, or the point at infinity (``x is None``)."""

    __slots__ = ("x", "y")

    def __init__(self, x: Optional[int], y: Optional[int]):
        self.x = x
        self.y = y

    @property
    def is_infinity(self) -> bool:
        """Whether this is the point at infinity."""
        return self.x is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point(x={self.x:#x}, y={self.y:#x})"


INFINITY = Point(None, None)
GENERATOR = Point(Gx, Gy)


def is_on_curve(point: Point) -> bool:
    """True iff *point* satisfies y^2 = x^3 + ax + b (mod p) or is infinity."""
    if point.is_infinity:
        return True
    x, y = point.x, point.y
    if not (0 <= x < P and 0 <= y < P):
        return False
    return (y * y - (x * x * x + A * x + B)) % P == 0


# -- Jacobian projective arithmetic ----------------------------------------
# A Jacobian point (X, Y, Z) represents affine (X/Z^2, Y/Z^3); infinity has
# Z == 0.  Formulas from Hankerson, Menezes & Vanstone, "Guide to Elliptic
# Curve Cryptography", 3.2.2, specialized for a = -3.

_JPoint = tuple[int, int, int]
_JINF: _JPoint = (1, 1, 0)


def _to_jacobian(point: Point) -> _JPoint:
    if point.is_infinity:
        return _JINF
    return (point.x, point.y, 1)


def _from_jacobian(jp: _JPoint) -> Point:
    X, Y, Z = jp
    if Z == 0:
        return INFINITY
    # pow(Z, -1, P) (extended gcd) is ~10x faster than the Fermat
    # exponentiation pow(Z, P-2, P) on CPython.
    z_inv = pow(Z, -1, P)
    z_inv2 = z_inv * z_inv % P
    return Point(X * z_inv2 % P, Y * z_inv2 * z_inv % P)


def _jdouble(jp: _JPoint) -> _JPoint:
    X1, Y1, Z1 = jp
    if Z1 == 0 or Y1 == 0:
        return _JINF
    # a = -3 optimization: M = 3(X1 - Z1^2)(X1 + Z1^2)
    Z1_2 = Z1 * Z1 % P
    M = 3 * (X1 - Z1_2) * (X1 + Z1_2) % P
    Y1_2 = Y1 * Y1 % P
    S = 4 * X1 * Y1_2 % P
    X3 = (M * M - 2 * S) % P
    Y3 = (M * (S - X3) - 8 * Y1_2 * Y1_2) % P
    Z3 = 2 * Y1 * Z1 % P
    return (X3, Y3, Z3)


def _jadd(p1: _JPoint, p2: _JPoint) -> _JPoint:
    X1, Y1, Z1 = p1
    X2, Y2, Z2 = p2
    if Z1 == 0:
        return p2
    if Z2 == 0:
        return p1
    Z1_2 = Z1 * Z1 % P
    Z2_2 = Z2 * Z2 % P
    U1 = X1 * Z2_2 % P
    U2 = X2 * Z1_2 % P
    S1 = Y1 * Z2_2 * Z2 % P
    S2 = Y2 * Z1_2 * Z1 % P
    if U1 == U2:
        if S1 != S2:
            return _JINF
        return _jdouble(p1)
    H = (U2 - U1) % P
    R = (S2 - S1) % P
    H2 = H * H % P
    H3 = H2 * H % P
    U1H2 = U1 * H2 % P
    X3 = (R * R - H3 - 2 * U1H2) % P
    Y3 = (R * (U1H2 - X3) - S1 * H3) % P
    Z3 = H * Z1 * Z2 % P
    return (X3, Y3, Z3)


def _jmadd(jp: _JPoint, ax: int, ay: int) -> _JPoint:
    """Mixed addition: Jacobian *jp* + affine ``(ax, ay)`` (i.e. Z2 = 1).

    Saves ~5 field multiplications over the general :func:`_jadd`; the
    comb tables below are kept in affine form precisely so every
    addition takes this path.
    """
    X1, Y1, Z1 = jp
    if Z1 == 0:
        return (ax, ay, 1)
    Z1_2 = Z1 * Z1 % P
    U2 = ax * Z1_2 % P
    S2 = ay * Z1_2 * Z1 % P
    if U2 == X1:
        if S2 != Y1:
            return _JINF
        return _jdouble(jp)
    H = (U2 - X1) % P
    R = (S2 - Y1) % P
    H2 = H * H % P
    H3 = H2 * H % P
    U1H2 = X1 * H2 % P
    X3 = (R * R - H3 - 2 * U1H2) % P
    Y3 = (R * (U1H2 - X3) - Y1 * H3) % P
    Z3 = H * Z1 % P
    return (X3, Y3, Z3)


def _batch_affine(jpoints: list[_JPoint]) -> list[tuple[int, int]]:
    """Normalize many Jacobian points to affine ``(x, y)`` pairs with a
    single field inversion (Montgomery's batch-inversion trick).

    All inputs must be finite (comb tables never contain infinity: the
    curve group has prime order, so no small multiple of a valid base
    point is the identity).
    """
    n = len(jpoints)
    prefix = [1] * n
    acc = 1
    for i in range(n):
        prefix[i] = acc
        acc = acc * jpoints[i][2] % P
    inv = pow(acc, -1, P)
    out: list[tuple[int, int]] = [(0, 0)] * n
    for i in range(n - 1, -1, -1):
        X, Y, Z = jpoints[i]
        z_inv = prefix[i] * inv % P
        inv = inv * Z % P
        z_inv2 = z_inv * z_inv % P
        out[i] = (X * z_inv2 % P, Y * z_inv2 * z_inv % P)
    return out


def point_add(p1: Point, p2: Point) -> Point:
    """Affine point addition (handles infinity and doubling)."""
    return _from_jacobian(_jadd(_to_jacobian(p1), _to_jacobian(p2)))


def _ladder(k: int, point: Point) -> _JPoint:
    """``k * point`` in Jacobian form via a 4-bit fixed-window ladder;
    *k* must already be reduced mod N.  No shared state and no
    precomputation beyond the per-call window table."""
    if k == 0 or point.is_infinity:
        return _JINF
    base = _to_jacobian(point)
    # Precompute 1..15 multiples of the base.
    table: list[_JPoint] = [_JINF, base]
    for i in range(2, 16):
        table.append(_jadd(table[i - 1], base))
    acc = _JINF
    for shift in range(k.bit_length() + (4 - k.bit_length() % 4) % 4 - 4, -1, -4):
        acc = _jdouble(_jdouble(_jdouble(_jdouble(acc))))
        window = (k >> shift) & 0xF
        if window:
            acc = _jadd(acc, table[window])
    return acc


def scalar_mult_naive(k: int, point: Point) -> Point:
    """Compute ``k * point`` with the reference ladder (:func:`_ladder`):
    the path for cold points and the oracle the comb paths are
    property-tested against."""
    return _from_jacobian(_ladder(k % N, point))


# -- comb precomputation ----------------------------------------------------
# A width-w comb table for base B stores, for every window index i and
# digit m in 1..2^w-1, the affine point m * 2^(w*i) * B.  k*B is then the
# sum over windows of table[i][digit_i(k)] — pure mixed additions, zero
# doublings, at the cost of building (and keeping) the table.

COMB_WIDTH_BASE = 8  #: comb width for the generator (one table per process)
COMB_WIDTH_POINT = 5  #: comb width for cached hot points (cheaper build)
POINT_TABLE_MAX = 32  #: LRU bound on per-point comb tables
PROMOTE_AFTER = 2  #: uses of a point before its comb table is built

_CombTable = list  # list[window] of list[digit-1] of (x, y)


def _build_comb(point: Point, width: int) -> _CombTable:
    """Build the comb table for *point* (see comment above)."""
    windows = -(-256 // width)  # ceil: scalars are < N < 2^256
    size = (1 << width) - 1
    flat: list[_JPoint] = []
    current = _to_jacobian(point)
    for i in range(windows):
        row = [current]
        for _ in range(size - 1):
            row.append(_jadd(row[-1], current))
        flat.extend(row)
        if i + 1 < windows:
            for _ in range(width):
                current = _jdouble(current)
    affine = _batch_affine(flat)
    return [affine[i * size : (i + 1) * size] for i in range(windows)]


def _comb_mult(k: int, table: _CombTable, width: int, acc: _JPoint = _JINF) -> _JPoint:
    """``acc + k * base`` where *table* is the comb for ``base``; *k*
    must already be reduced mod N."""
    mask = (1 << width) - 1
    i = 0
    while k:
        digit = k & mask
        if digit:
            ax, ay = table[i][digit - 1]
            acc = _jmadd(acc, ax, ay)
        k >>= width
        i += 1
    return acc


_BASE_COMB: _CombTable | None = None

#: per-point comb tables, LRU-bounded, keyed by affine coordinates
_POINT_COMBS: OrderedDict[tuple[int, int], _CombTable] = OrderedDict()
#: use counters for not-yet-promoted points (bounded alongside the combs)
_POINT_HEAT: OrderedDict[tuple[int, int], int] = OrderedDict()


def _base_comb() -> _CombTable:
    global _BASE_COMB
    if _BASE_COMB is None:
        _BASE_COMB = _build_comb(GENERATOR, COMB_WIDTH_BASE)
    return _BASE_COMB


def _point_comb(point: Point) -> _CombTable | None:
    """The cached comb for *point*, building it once the point is hot;
    ``None`` while the point is still cold."""
    key = (point.x, point.y)
    table = _POINT_COMBS.get(key)
    if table is not None:
        _POINT_COMBS.move_to_end(key)
        return table
    heat = _POINT_HEAT.get(key, 0) + 1
    if heat < PROMOTE_AFTER:
        _POINT_HEAT[key] = heat
        _POINT_HEAT.move_to_end(key)
        while len(_POINT_HEAT) > 4 * POINT_TABLE_MAX:
            _POINT_HEAT.popitem(last=False)
        return None
    _POINT_HEAT.pop(key, None)
    table = _build_comb(point, COMB_WIDTH_POINT)
    _POINT_COMBS[key] = table
    while len(_POINT_COMBS) > POINT_TABLE_MAX:
        _POINT_COMBS.popitem(last=False)
    return table


def clear_point_tables() -> None:
    """Drop all cached per-point comb tables and heat counters (tests)."""
    _POINT_COMBS.clear()
    _POINT_HEAT.clear()


def scalar_mult(k: int, point: Point) -> Point:
    """Compute ``k * point``.

    Dispatches to the fixed-base comb for the generator, a cached comb
    for hot points, or the reference ladder for cold points; all three
    produce bit-identical results.
    """
    k %= N
    if k == 0 or point.is_infinity:
        return INFINITY
    if _cache.accel_enabled():
        if point.x == Gx and point.y == Gy:
            return _from_jacobian(_comb_mult(k, _base_comb(), COMB_WIDTH_BASE))
        table = _point_comb(point)
        if table is not None:
            return _from_jacobian(_comb_mult(k, table, COMB_WIDTH_POINT))
    return scalar_mult_naive(k, point)


def _double_scalar_jacobian(u1: int, u2: int, point: Point) -> _JPoint:
    """``u1*G + u2*point`` in Jacobian form — the ECDSA verify shape:
    the base comb for ``u1*G`` plus *point*'s comb once it is hot, the
    reference ladder while it is cold."""
    u1 %= N
    u2 %= N
    if not _cache.accel_enabled():
        return _jadd(_ladder(u1, GENERATOR), _ladder(u2, point))
    acc = _comb_mult(u1, _base_comb(), COMB_WIDTH_BASE)
    if u2 == 0 or point.is_infinity:
        return acc
    table = _point_comb(point)
    if table is not None:
        return _comb_mult(u2, table, COMB_WIDTH_POINT, acc)
    return _jadd(acc, _ladder(u2, point))


def double_scalar_base_mult(u1: int, u2: int, point: Point) -> Point:
    """``u1*G + u2*point`` as an affine :class:`Point`."""
    return _from_jacobian(_double_scalar_jacobian(u1, u2, point))


def encode_point(point: Point) -> bytes:
    """SEC1 compressed encoding (33 bytes); infinity encodes as ``b"\\x00"``."""
    if point.is_infinity:
        return b"\x00"
    prefix = 0x03 if point.y & 1 else 0x02
    return bytes([prefix]) + point.x.to_bytes(32, "big")


def decode_point(data: bytes) -> Point:
    """Decode a SEC1 compressed (or uncompressed) point; validates curve
    membership."""
    if data == b"\x00":
        return INFINITY
    if len(data) == 33 and data[0] in (0x02, 0x03):
        x = int.from_bytes(data[1:], "big")
        if x >= P:
            raise ValueError("point x-coordinate out of range")
        alpha = (pow(x, 3, P) + A * x + B) % P
        # p ≡ 3 (mod 4) so sqrt is alpha^((p+1)/4).
        y = pow(alpha, (P + 1) // 4, P)
        if y * y % P != alpha:
            raise ValueError("point is not on the curve")
        if (y & 1) != (data[0] & 1):
            y = P - y
        return Point(x, y)
    if len(data) == 65 and data[0] == 0x04:
        x = int.from_bytes(data[1:33], "big")
        y = int.from_bytes(data[33:], "big")
        point = Point(x, y)
        if not is_on_curve(point):
            raise ValueError("point is not on the curve")
        return point
    raise ValueError(f"malformed point encoding ({len(data)} bytes)")
