"""Flat 256-bit GDP names.

Every addressable entity — DataCapsules, DataCapsule-servers, GDP-routers,
organizations — lives in one flat name-space (§IV-B).  A name is the
SHA-256 hash of the entity's signed metadata, which makes the name a
*cryptographic trust anchor*: whoever knows a name can verify that a
presented metadata record is the genuine preimage, and from the metadata
obtain the entity's public keys without any PKI.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.hashing import HASH_LEN, hash_value
from repro.errors import NameError_

__all__ = ["GdpName"]

_B32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"


class GdpName:
    """An immutable 256-bit flat name.

    Names order and hash by their raw bytes so they can key FIBs,
    GLookupService tables, and DHT rings directly.
    """

    __slots__ = ("_raw",)

    def __init__(self, raw: bytes):
        if not isinstance(raw, bytes) or len(raw) != HASH_LEN:
            raise NameError_(f"GDP names are {HASH_LEN} bytes, got {raw!r:.80}")
        object.__setattr__(self, "_raw", raw)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("GdpName is immutable")

    @classmethod
    def derive(cls, domain: str, metadata_wire: Any) -> "GdpName":
        """Derive a name as the domain-separated hash of canonical
        metadata.  ``domain`` distinguishes entity classes (e.g.
        ``"gdp.capsule"`` vs ``"gdp.server"``) so a server can never
        squat a capsule's name by reusing bytes."""
        return cls(hash_value(domain, metadata_wire))

    @property
    def raw(self) -> bytes:
        """The raw 32-byte name."""
        return self._raw

    def as_int(self) -> int:
        """The name as an unsigned integer (used for DHT XOR distance)."""
        return int.from_bytes(self._raw, "big")

    def distance(self, other: "GdpName") -> int:
        """Kademlia-style XOR distance to *other*."""
        return self.as_int() ^ other.as_int()

    def hex(self) -> str:
        """Hex string form."""
        return self._raw.hex()

    def human(self) -> str:
        """Short printable form (first 10 base32 chars), for logs only."""
        bits = int.from_bytes(self._raw[:8], "big")
        chars = []
        for shift in range(59, 9, -5):
            chars.append(_B32_ALPHABET[(bits >> shift) & 0x1F])
        return "".join(chars)

    @classmethod
    def from_hex(cls, text: str) -> "GdpName":
        """Parse from a hex string."""
        try:
            return cls(bytes.fromhex(text))
        except ValueError as exc:
            raise NameError_(f"invalid hex name: {exc}") from exc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GdpName):
            return NotImplemented
        return self._raw == other._raw

    def __lt__(self, other: "GdpName") -> bool:
        return self._raw < other._raw

    def __le__(self, other: "GdpName") -> bool:
        return self._raw <= other._raw

    def __hash__(self) -> int:
        return hash(self._raw)

    def __repr__(self) -> str:
        return f"GdpName({self.human()})"

    def __bytes__(self) -> bytes:
        return self._raw
