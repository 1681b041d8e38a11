"""Canonical, deterministic serialization for signed GDP structures.

Every signed or hashed object in the system (capsule metadata, records,
heartbeats, delegation certificates, advertisements) is serialized with
this module before hashing/signing, so two independent implementations of
an object produce byte-identical preimages.

The format is a small, self-describing TLV (type-length-value) scheme:

===========  =====  =======================================================
type byte    tag    payload
===========  =====  =======================================================
``b"N"``     null   (empty)
``b"F"``     false  (empty)
``b"T"``     true   (empty)
``b"I"``     int    big-endian two's-complement, minimal length
``b"B"``     bytes  raw bytes
``b"S"``     str    UTF-8 bytes
``b"L"``     list   concatenation of encoded items
``b"D"``     dict   concatenation of encoded (key, value) pairs, keys
                    sorted by their *encoded* form (ties impossible since
                    encodings are injective)
===========  =====  =======================================================

Lengths are encoded as unsigned varints (LEB128).  The scheme is
canonical: for every supported value there is exactly one encoding, and
decoding rejects any non-minimal or trailing-garbage input.  Dict keys
must be strings (the only case the GDP structures need) to keep ordering
rules simple and unambiguous.
"""

from __future__ import annotations

import struct as _struct
from typing import Any

from repro.errors import EncodingError

__all__ = [
    "Encoded",
    "encode",
    "decode",
    "extend_list",
    "encode_uvarint",
    "decode_uvarint",
    "pack_float",
    "unpack_float",
]

_TAG_NULL = ord("N")
_TAG_FALSE = ord("F")
_TAG_TRUE = ord("T")
_TAG_INT = ord("I")
_TAG_BYTES = ord("B")
_TAG_STR = ord("S")
_TAG_LIST = ord("L")
_TAG_DICT = ord("D")
_UNDECODED = object()


class Encoded:
    """A value carried as its canonical bytes :attr:`data`, decoded
    strictly on first use unless built with it.  It reads as its value
    (``c[key]``, ``c.get(key)``, ``==``) and has no write surface:
    :func:`encode` splices :attr:`data`, whatever the value holds."""

    __slots__ = ("data", "_value")

    def __init__(self, data: bytes, value: Any = _UNDECODED):
        self.data = data
        self._value = value

    @property
    def undecoded(self) -> bool:
        """Whether nothing has decoded, and so nothing changed, the value."""
        return self._value is _UNDECODED

    @property
    def value(self) -> Any:
        if self._value is _UNDECODED:
            self._value = decode(self.data)
        return self._value

    def __getattr__(self, name: str) -> Any:
        if name[0] == "_":  # no value to defer to before __init__ ran
            raise AttributeError(name)
        return getattr(self.value, name)

    def __getitem__(self, key):
        return self.value[key]

    def __eq__(self, other: object) -> bool:
        return self.value == (other.value if isinstance(other, Encoded) else other)


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as LEB128."""
    if value < 0:
        raise EncodingError(f"uvarint must be non-negative, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a LEB128 varint; returns ``(value, next_offset)``.

    Rejects non-minimal encodings (a trailing 0x00 continuation byte)
    so every integer has exactly one encoding.
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise EncodingError("truncated uvarint")
        byte = data[pos]
        pos += 1
        if shift and byte == 0x00:
            raise EncodingError("non-minimal uvarint encoding")
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise EncodingError("uvarint too large")


def _encode_int_payload(value: int) -> bytes:
    """Minimal big-endian two's-complement payload for an int."""
    if value == 0:
        return b""
    length = (value.bit_length() + 8) // 8  # +8 leaves room for sign bit
    payload = value.to_bytes(length, "big", signed=True)
    # Strip redundant leading sign-extension bytes to keep it minimal.
    while len(payload) > 1:
        if payload[0] == 0x00 and not payload[1] & 0x80:
            payload = payload[1:]
        elif payload[0] == 0xFF and payload[1] & 0x80:
            payload = payload[1:]
        else:
            break
    return payload


def _decode_int_payload(payload: bytes) -> int:
    if not payload:
        return 0
    value = int.from_bytes(payload, "big", signed=True)
    if _encode_int_payload(value) != payload:
        raise EncodingError("non-minimal int encoding")
    return value


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_TAG_NULL)
        out += encode_uvarint(0)
    elif value is True:
        out.append(_TAG_TRUE)
        out += encode_uvarint(0)
    elif value is False:
        out.append(_TAG_FALSE)
        out += encode_uvarint(0)
    elif isinstance(value, int):
        payload = _encode_int_payload(value)
        out.append(_TAG_INT)
        out += encode_uvarint(len(payload))
        out += payload
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(_TAG_BYTES)
        out += encode_uvarint(len(raw))
        out += raw
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        out += encode_uvarint(len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        body = bytearray()
        for item in value:
            _encode_into(item, body)
        out.append(_TAG_LIST)
        out += encode_uvarint(len(body))
        out += body
    elif isinstance(value, dict):
        pairs = []
        for key, val in value.items():
            if not isinstance(key, str):
                raise EncodingError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            key_enc = bytearray()
            _encode_into(key, key_enc)
            val_enc = bytearray()
            _encode_into(val, val_enc)
            pairs.append((bytes(key_enc), bytes(val_enc)))
        pairs.sort(key=lambda kv: kv[0])
        for i in range(1, len(pairs)):
            if pairs[i][0] == pairs[i - 1][0]:
                raise EncodingError("duplicate dict key")
        body = bytearray()
        for key_enc, val_enc in pairs:
            body += key_enc
            body += val_enc
        out.append(_TAG_DICT)
        out += encode_uvarint(len(body))
        out += body
    elif isinstance(value, Encoded):
        out += value.data
    else:
        raise EncodingError(f"unsupported type: {type(value).__name__}")


def encode(value: Any) -> bytes:
    """Canonically encode *value*; raises :class:`EncodingError` on
    unsupported types or non-string dict keys.  An :class:`Encoded` is
    spliced as its bytes, not walked."""
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def extend_list(encoded: bytes, *items: bytes) -> bytes:
    """``encode(lst + extra)`` from ``encode(lst)`` and each extra
    item's encoding: the items are spliced, not walked."""
    length, start = decode_uvarint(encoded, 1)
    tail = b"".join(items)
    return b"L" + encode_uvarint(length + len(tail)) + encoded[start:] + tail


def pack_float(value: float) -> bytes:
    """Pack a float as its exact IEEE-754 big-endian bits.

    The canonical TLV has no float tag (signed preimages stay
    integer-only), so timestamps that must round-trip *exactly* through
    wire forms — advertisement lease expiries crossing the DHT tier,
    where a lossy round-trip would break byte-identical simtest
    replays — travel as an 8-byte ``bytes`` value instead.
    """
    return _struct.pack(">d", value)


def unpack_float(raw: bytes) -> float:
    """Inverse of :func:`pack_float`; raises on malformed input."""
    if len(raw) != 8:
        raise EncodingError(
            f"packed float must be 8 bytes, got {len(raw)}"
        )
    return _struct.unpack(">d", raw)[0]


def _decode_at(data: bytes, offset: int, carry: str | None = None) -> tuple[Any, int]:
    if offset >= len(data):
        raise EncodingError("truncated value")
    tag = data[offset]
    length, pos = decode_uvarint(data, offset + 1)
    end = pos + length
    if end > len(data):
        raise EncodingError("truncated payload")
    payload = data[pos:end]
    if tag == _TAG_NULL:
        if payload:
            raise EncodingError("null must be empty")
        return None, end
    if tag == _TAG_TRUE:
        if payload:
            raise EncodingError("true must be empty")
        return True, end
    if tag == _TAG_FALSE:
        if payload:
            raise EncodingError("false must be empty")
        return False, end
    if tag == _TAG_INT:
        return _decode_int_payload(payload), end
    if tag == _TAG_BYTES:
        return payload, end
    if tag == _TAG_STR:
        try:
            return payload.decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise EncodingError("invalid UTF-8 in string") from exc
    if tag == _TAG_LIST:
        items = []
        inner = 0
        while inner < length:
            item, nxt = _decode_at(payload, inner)
            items.append(item)
            inner = nxt
        return items, end
    if tag == _TAG_DICT:
        result: dict[str, Any] = {}
        inner = 0
        prev_key_enc: bytes | None = None
        while inner < length:
            key_start = inner
            key, inner = _decode_at(payload, inner)
            key_enc = payload[key_start:inner]
            if not isinstance(key, str):
                raise EncodingError("dict keys must be str")
            if prev_key_enc is not None and key_enc <= prev_key_enc:
                raise EncodingError("dict keys out of canonical order")
            prev_key_enc = key_enc
            if carry is not None and key == carry:  # its framing only
                size, start = decode_uvarint(payload, inner + 1)
                if start + size > length:
                    raise EncodingError("truncated payload")
                value, inner = Encoded(payload[inner : start + size]), start + size
            else:
                value, inner = _decode_at(payload, inner)
            result[key] = value
        return result, end
    raise EncodingError(f"unknown tag byte {tag:#x}")


def decode(data: bytes, carry: str | None = None) -> Any:
    """Decode a canonically encoded value; rejects trailing garbage and
    any non-canonical form.  With *carry*, a top-level map's field of
    that name comes back as an :class:`Encoded` of its exact span: its
    length is checked now, the rest when it is first used."""
    value, end = _decode_at(bytes(data), 0, carry)
    if end != len(data):
        raise EncodingError("trailing bytes after value")
    return value
