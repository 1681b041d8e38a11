"""GDP protocol data units (PDUs) and their binary wire form.

The GDP network forwards PDUs between flat names (§VIII: "GDP-routers
route PDUs in the flat namespace network").  A PDU has a source and a
destination name, a type, a correlation id (request/response matching),
a TTL, and an arbitrary wire-encodable payload.

``size_bytes`` is the on-the-wire size: a fixed 80-byte header (two
32-byte names, correlation id, TTL, type code) plus the canonical
encoding of the payload.  The network simulator charges link time from
it — which is what makes Figure 6's PDU-size sweep meaningful — and the
socket transport ships exactly those bytes, so sim accounting and the
real wire agree by construction.

The header layout (big-endian):

====== ===== =========================================
offset bytes field
====== ===== =========================================
0      32    source name (raw)
32     32    destination name (raw)
64     8     correlation id (u64)
72     2     TTL (u16)
74     1     ptype code (see ``register_ptype``)
75     5     reserved (zero)
====== ===== =========================================
"""

from __future__ import annotations

import itertools
import struct
from typing import Any

from repro import encoding
from repro.errors import WireFormatError
from repro.naming.names import GdpName

__all__ = [
    "Pdu",
    "HEADER_BYTES",
    "DEFAULT_TTL",
    "payload_size",
    "register_ptype",
    "ptype_code",
    "ptype_from_code",
]

HEADER_BYTES = 80
DEFAULT_TTL = 64

_HEADER_STRUCT = struct.Struct(">32s32sQHB5x")
assert _HEADER_STRUCT.size == HEADER_BYTES
_ENVELOPE = {"auth", "body"}  # a secure reply's keys (repro.server.secure)
_UNDECODED = object()


def payload_size(payload: Any) -> int:
    """Encoded size of a payload in bytes (no PDU header).

    The client-side batcher and the server-side sync fetch use this to
    cap batch PDUs at a byte budget before building them.
    """
    return len(encoding.encode(payload))

# PDU types
T_DATA = "data"            # application request (client -> capsule/server)
T_RESPONSE = "resp"        # application response
T_PUSH = "push"            # server-initiated publish (subscriptions)
T_ADV_HELLO = "adv_hello"  # endpoint -> router: start secure advertisement
T_ADV_CHALLENGE = "adv_chal"
T_ADV_RESPONSE = "adv_resp"
T_ADV_ACK = "adv_ack"
T_ADV_WITHDRAW = "adv_withdraw"
T_NO_ROUTE = "no_route"    # network error back to source
T_ROUTE_INVALIDATE = "route_inval"  # client -> router: cached route is dead
T_SYNC = "sync"            # server <-> server anti-entropy

# DHT RPC plane (§VII Kademlia tier): request/reply pairs matched by
# correlation id.  Payloads carry the sender's contact so both sides of
# every RPC refresh their k-buckets from live traffic.
T_DHT_FIND_NODE = "dht_find_node"    # {k: key raw, s: contact}
T_DHT_NODES = "dht_nodes"            # {c: [contact...]}
T_DHT_FIND_VALUE = "dht_find_value"  # {k: key raw, s: contact}
T_DHT_VALUES = "dht_values"          # {c: [contact...], r: [record...]}
T_DHT_STORE = "dht_store"            # {k: key raw, r: [record...], s: contact}
T_DHT_STORE_ACK = "dht_store_ack"    # {ok: 1, n: stored count}
T_DHT_PING = "dht_ping"              # {s: contact}
T_DHT_PONG = "dht_pong"              # {}

# -- ptype <-> wire code registry ------------------------------------------
#
# The header carries the type as one byte; the registry is append-only so
# codes stay stable across versions (new types claim the next free code).

_PTYPE_TO_CODE: dict[str, int] = {}
_CODE_TO_PTYPE: dict[int, str] = {}


def register_ptype(ptype: str, code: int | None = None) -> int:
    """Register *ptype* with a wire code (auto-assigned if omitted).

    Idempotent for an already-registered name; raises
    :class:`WireFormatError` on a code collision.
    """
    existing = _PTYPE_TO_CODE.get(ptype)
    if existing is not None:
        if code is not None and code != existing:
            raise WireFormatError(
                f"ptype {ptype!r} already registered as code {existing}"
            )
        return existing
    if code is None:
        code = max(_CODE_TO_PTYPE, default=0) + 1
    if not 1 <= code <= 255:
        raise WireFormatError(f"ptype code out of range: {code}")
    if code in _CODE_TO_PTYPE:
        raise WireFormatError(
            f"ptype code {code} already taken by {_CODE_TO_PTYPE[code]!r}"
        )
    _PTYPE_TO_CODE[ptype] = code
    _CODE_TO_PTYPE[code] = ptype
    return code


def ptype_code(ptype: str) -> int:
    """The wire code for *ptype*; raises if unregistered."""
    try:
        return _PTYPE_TO_CODE[ptype]
    except KeyError:
        raise WireFormatError(f"unregistered ptype {ptype!r}") from None


def ptype_from_code(code: int) -> str:
    """The ptype for a wire *code*; raises if unknown."""
    try:
        return _CODE_TO_PTYPE[code]
    except KeyError:
        raise WireFormatError(f"unknown ptype code {code}") from None


for _i, _ptype in enumerate(
    (
        T_DATA, T_RESPONSE, T_PUSH, T_ADV_HELLO, T_ADV_CHALLENGE,
        T_ADV_RESPONSE, T_ADV_ACK, T_ADV_WITHDRAW, T_NO_ROUTE,
        T_ROUTE_INVALIDATE, T_SYNC,
    ),
    start=1,
):
    register_ptype(_ptype, _i)

for _i, _ptype in enumerate(
    (
        T_DHT_FIND_NODE, T_DHT_NODES, T_DHT_FIND_VALUE, T_DHT_VALUES,
        T_DHT_STORE, T_DHT_STORE_ACK, T_DHT_PING, T_DHT_PONG,
    ),
    start=12,
):
    register_ptype(_ptype, _i)

_id_counter = itertools.count(1)


class Pdu:
    """One routable message in the flat namespace."""

    __slots__ = (
        "src", "dst", "ptype", "corr_id", "ttl", "_payload", "_payload_bytes"
    )

    def __init__(
        self,
        src: GdpName,
        dst: GdpName,
        ptype: str,
        payload: Any,
        corr_id: int | None = None,
        ttl: int = DEFAULT_TTL,
    ):
        self.src = src
        self.dst = dst
        self.ptype = ptype
        self._payload = payload
        self.corr_id = corr_id if corr_id is not None else next(_id_counter)
        self.ttl = ttl
        self._payload_bytes: bytes | None = None

    @property
    def payload(self) -> Any:
        """The payload; one received as bytes decodes on first read, and
        a secure reply's body stays its bytes, for its opener to check.
        Setting it drops the cached bytes."""
        if self._payload is _UNDECODED:
            payload = encoding.decode(self._payload_bytes, carry="body")
            body = payload.get("body") if isinstance(payload, dict) else None
            if isinstance(body, encoding.Encoded) and payload.keys() != _ENVELOPE:
                payload["body"] = body.value
            self._payload = payload
        return self._payload

    @payload.setter
    def payload(self, value: Any) -> None:
        self._payload = value
        self._payload_bytes = None

    @property
    def payload_bytes(self) -> bytes:
        """The canonical encoding of the payload, cached on the PDU so
        sim size accounting and the socket wire share one serialization.
        Setting it replaces the payload by bytes to decode on next read."""
        if self._payload_bytes is None:
            self._payload_bytes = encoding.encode(self.payload)
        return self._payload_bytes

    @payload_bytes.setter
    def payload_bytes(self, data: bytes) -> None:
        self._payload, self._payload_bytes = _UNDECODED, data

    @property
    def size_bytes(self) -> int:
        """Encoded size in bytes (header + canonical payload)."""
        return HEADER_BYTES + len(self.payload_bytes)

    def encode_wire(self) -> bytes:
        """The full binary wire form: 80-byte header + payload bytes.

        ``len(encode_wire()) == size_bytes`` always holds, so the bytes
        the socket transport ships are exactly what the simulator
        charges for.
        """
        header = _HEADER_STRUCT.pack(
            self.src.raw,
            self.dst.raw,
            self.corr_id & 0xFFFFFFFFFFFFFFFF,
            max(0, self.ttl) & 0xFFFF,
            ptype_code(self.ptype),
        )
        return header + self.payload_bytes

    @classmethod
    def decode_wire(cls, data: bytes) -> "Pdu":
        """Parse a binary wire form produced by :meth:`encode_wire`.

        The payload decodes now, so a malformed frame is refused at
        receipt: raises :class:`WireFormatError` on truncation, trailing
        junk inside the payload, or an unknown type code.
        """
        if len(data) < HEADER_BYTES:
            raise WireFormatError(
                f"PDU truncated: {len(data)} bytes < {HEADER_BYTES} header"
            )
        src_raw, dst_raw, corr_id, ttl, code = _HEADER_STRUCT.unpack_from(data)
        src, dst = GdpName(src_raw), GdpName(dst_raw)
        pdu = cls(src, dst, ptype_from_code(code), None, corr_id, ttl)
        pdu.payload_bytes = bytes(data[HEADER_BYTES:])
        try:
            pdu.payload  # decoded now, strictly
        except Exception as exc:
            raise WireFormatError(f"bad PDU payload: {exc}") from exc
        return pdu

    def response(self, ptype: str, payload: Any) -> "Pdu":
        """Build the reply PDU (dst/src swapped, same correlation id)."""
        return Pdu(self.dst, self.src, ptype, payload, corr_id=self.corr_id)

    def shipped(self) -> "Pdu":
        """The copy a receiver gets: this PDU's payload bytes alone,
        decoded by :attr:`payload` on first read."""
        copy = Pdu(self.src, self.dst, self.ptype, None, self.corr_id, self.ttl)
        copy.payload_bytes = self.payload_bytes
        return copy

    def decremented(self) -> "Pdu":
        """A copy with TTL reduced by one (forwarding); it decodes nothing."""
        ttl = self.ttl - 1
        copy = Pdu(self.src, self.dst, self.ptype, self._payload, self.corr_id, ttl)
        copy._payload_bytes = self._payload_bytes
        return copy

    def __repr__(self) -> str:
        return (
            f"Pdu({self.ptype} {self.src.human()}->{self.dst.human()} "
            f"#{self.corr_id} ttl={self.ttl})"
        )
