"""Property tests: the binary PDU wire codec round-trips its domain and
rejects everything else (truncation, garbage, unknown type codes), and
the parsers of what a PDU carries — records, heartbeats, runs, pushes —
answer any decodable value with a result or a ``GdpError``."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caapi.commit_service import ShardMap
from repro.capsule import CapsuleWriter, DataCapsule, Heartbeat, Record
from repro.capsule.capsule import run_from_wire, run_wire
from repro.client import GdpClient, OwnerConsole
from repro.client.failover import Subscription
from repro.crypto import SigningKey
from repro.crypto.keys import VerifyingKey
from repro.delegation import AdCert, Placement
from repro import encoding
from repro.errors import (
    CapsuleError,
    DelegationError,
    EncodingError,
    GdpError,
    IntegrityError,
    NameError_,
    SignatureError,
    WireFormatError,
)
from repro.naming import GdpName, Metadata
from repro.routing import pdu as pdutypes
from repro.routing.pdu import HEADER_BYTES, Pdu
from repro.runtime.dispatch import dispatch_op
from repro.server import DataCapsuleServer
from repro.sim import SimNetwork

# The payload value domain the canonical encoding covers.
payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**64), max_value=2**64)
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

names = st.binary(min_size=32, max_size=32).map(GdpName)
ptypes = st.sampled_from(
    [
        pdutypes.T_DATA,
        pdutypes.T_RESPONSE,
        pdutypes.T_PUSH,
        pdutypes.T_ADV_HELLO,
        pdutypes.T_NO_ROUTE,
        pdutypes.T_SYNC,
    ]
)

pdus = st.builds(
    Pdu,
    src=names,
    dst=names,
    ptype=ptypes,
    payload=payloads,
    corr_id=st.integers(min_value=0, max_value=2**64 - 1),
    ttl=st.integers(min_value=0, max_value=0xFFFF),
)


class TestWireCodecProperties:
    @given(pdus)
    @settings(max_examples=300)
    def test_roundtrip(self, pdu):
        decoded = Pdu.decode_wire(pdu.encode_wire())
        assert decoded.src == pdu.src
        assert decoded.dst == pdu.dst
        assert decoded.ptype == pdu.ptype
        assert decoded.corr_id == pdu.corr_id
        assert decoded.ttl == pdu.ttl
        assert decoded.payload == pdu.payload

    @given(pdus)
    @settings(max_examples=200)
    def test_wire_length_is_size_bytes(self, pdu):
        wire = pdu.encode_wire()
        assert len(wire) == pdu.size_bytes
        assert Pdu.decode_wire(wire).size_bytes == pdu.size_bytes

    @given(pdus, st.integers(min_value=1))
    @settings(max_examples=300)
    def test_truncated_frames_rejected(self, pdu, cut):
        wire = pdu.encode_wire()
        cut = 1 + (cut % (len(wire) - 1))  # strict non-empty prefix
        with pytest.raises(WireFormatError):
            Pdu.decode_wire(wire[: len(wire) - cut])

    @given(pdus, st.binary(min_size=1, max_size=16))
    @settings(max_examples=200)
    def test_trailing_garbage_rejected(self, pdu, junk):
        with pytest.raises(WireFormatError):
            Pdu.decode_wire(pdu.encode_wire() + junk)

    @given(st.binary(max_size=200))
    @settings(max_examples=300)
    def test_garbage_never_crashes(self, data):
        try:
            decoded = Pdu.decode_wire(data)
        except WireFormatError:
            return
        # Anything accepted must re-encode to the same bytes.
        assert decoded.encode_wire() == data

    @given(pdus)
    @settings(max_examples=100)
    def test_unknown_type_code_rejected(self, pdu):
        wire = bytearray(pdu.encode_wire())
        wire[74] = 0xEE  # no ptype registered anywhere near 238
        with pytest.raises(WireFormatError):
            Pdu.decode_wire(bytes(wire))


class TestSecureReplyBodies:
    """A secure reply's body (a payload of just ``auth`` and ``body``)
    stays its received bytes; any other payload decodes whole."""

    @given(pdus, payloads, payloads)
    @settings(max_examples=200)
    def test_reply_body_stays_its_received_bytes(self, pdu, auth, body):
        pdu.payload = {"auth": auth, "body": body}
        wire = pdu.encode_wire()
        decoded = Pdu.decode_wire(wire)
        carried = decoded.payload["body"]
        assert isinstance(carried, encoding.Encoded) and carried.undecoded
        assert decoded.payload["auth"] == auth
        assert carried.data == encoding.encode(body)
        assert carried.value == encoding.decode(encoding.encode(body))
        assert decoded.encode_wire() == wire
        assert Pdu(pdu.src, pdu.dst, pdu.ptype, decoded.payload).encode_wire()[80:] == wire[80:]

    @given(pdus, payloads, st.dictionaries(st.text(max_size=8), payloads, min_size=1, max_size=3))
    @settings(max_examples=150)
    def test_other_payloads_decode_whole(self, pdu, body, others):
        others.pop("auth", None)
        pdu.payload = {**others, "body": body}
        decoded = Pdu.decode_wire(pdu.encode_wire())
        assert not isinstance(decoded.payload["body"], encoding.Encoded)
        assert decoded.payload == pdu.payload

    @given(pdus, payloads, st.booleans())
    @settings(max_examples=150)
    def test_bad_bytes_inside_a_reply_body_are_refused_when_used(self, pdu, body, cut):
        inner = encoding.encode(body)
        inner = inner[:-1] if cut else b"I\x01\x00" + inner
        field = b"L" + encoding.encode_uvarint(len(inner)) + inner
        pieces = encoding.encode("auth") + encoding.encode(None)
        pieces += encoding.encode("body") + field
        payload = b"D" + encoding.encode_uvarint(len(pieces)) + pieces
        decoded = Pdu.decode_wire(pdu.encode_wire()[:HEADER_BYTES] + payload)
        with pytest.raises(EncodingError):
            decoded.payload["body"].value
        decoded.payload["x"] = 1  # not a secure reply: the body decodes whole
        with pytest.raises(WireFormatError):
            Pdu.decode_wire(pdu.encode_wire()[:HEADER_BYTES] + encoding.encode(decoded.payload))


# -- what a PDU carries: records, heartbeats, runs, pushes -----------------

_OWNER = SigningKey.from_seed(b"wire-props-owner")
_WRITER_KEY = SigningKey.from_seed(b"wire-props-writer")


def _server() -> DataCapsuleServer:
    """A fresh server (same name every time) — each example gets its own."""
    return DataCapsuleServer(SimNetwork(seed=5), "wire-props-server")


def _client() -> GdpClient:
    return GdpClient(SimNetwork(seed=5), "wire-props-client")


_CONSOLE = OwnerConsole(_client(), _OWNER)
_METADATA = _CONSOLE.design_capsule(_WRITER_KEY.public)
_CHAIN = _CONSOLE.delegate(_METADATA, _server().metadata)
_NAME = _METADATA.name
_SENDER = _CONSOLE.client.name
_RECORDS, _HEARTBEAT = CapsuleWriter(_METADATA, _WRITER_KEY).append_batch(
    [b"first", b"second", b"third"]
)
_RUN = run_wire(_RECORDS, _HEARTBEAT)
_GENUINE = {record.digest for record in _RECORDS}


def _paths(value, prefix=()):
    """Every position in a wire tree: each dict key and list index."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_RUN_PATHS = sorted(_paths(_RUN), key=repr)
_PLACEMENT = Placement(_NAME, 1, [_CHAIN.server])
_PLACEMENT.signature = _OWNER.sign(_PLACEMENT.signing_preimage())
_HOST = {
    "op": "host", "capsule": _NAME.raw, "metadata": _METADATA.to_wire(),
    "chain": _CHAIN.to_wire(), "placement": _PLACEMENT.to_wire(),
}


def _substituted(path, value) -> dict:
    """The genuine run with the value at *path* replaced."""
    body = copy.deepcopy(_RUN)
    node = body
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return body


class TestWireParsers:
    @given(st.sampled_from(_RUN_PATHS), payloads)
    @settings(max_examples=400, deadline=None)
    def test_substituted_run_parses_or_raises_gdp_error(self, path, value):
        body = _substituted(path, value)
        try:
            records, heartbeat = run_from_wire(_NAME, body)
        except GdpError:
            return
        try:
            new, _ = DataCapsule(_METADATA).admit(records, heartbeat)
        except GdpError:
            return
        assert {record.digest for record in new} <= _GENUINE

    @given(st.sampled_from(_RUN_PATHS), payloads)
    @settings(max_examples=150, deadline=None)
    def test_substituted_append_batch_is_answered(self, path, value):
        """The server answers, never raises — not even a MemoryError."""
        server = _server()
        server.host_capsule(_METADATA, _CHAIN)
        body = dict(_substituted(path, value), op="append_batch")
        pdu = Pdu(_SENDER, server.name, pdutypes.T_DATA, body)
        reply = dispatch_op(server, pdu, body)
        assert isinstance(reply, dict)
        stored = server.hosted[_NAME].capsule.records()
        assert {record.digest for record in stored} <= _GENUINE

    @given(st.sampled_from(_RUN_PATHS), payloads)
    @settings(max_examples=150, deadline=None)
    def test_substituted_push_is_dropped_or_admitted(self, path, value):
        delivered = []
        client = _client()
        client._reader(_NAME).accept_metadata(_METADATA)
        client._subscriptions[_NAME] = sub = Subscription(
            _NAME, lambda record, heartbeat: delivered.append(record)
        )
        sub.last_delivered = 0
        body = _substituted(path, value)
        client.on_push(Pdu(_SENDER, client.name, pdutypes.T_PUSH, body))
        assert {record.digest for record in delivered} <= _GENUINE

    @given(st.sampled_from(sorted(_paths(_PLACEMENT.to_wire()), key=repr)), payloads)
    @settings(max_examples=150, deadline=None)
    def test_substituted_placement_hosts_nothing(self, path, value):
        """A ``host`` op whose owner-signed placement was altered anywhere
        is answered, never raised, and hosts nothing."""
        server = _server()
        body = copy.deepcopy(_HOST)
        node = body["placement"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        pdu = Pdu(_SENDER, server.name, pdutypes.T_DATA, body)
        assert isinstance(dispatch_op(server, pdu, body), dict)
        assert _NAME not in server.hosted or body["placement"] == _PLACEMENT.to_wire()

    def test_int_for_bytes_is_refused(self):
        """An int where bytes belong used to become that many zero bytes
        (a 19-byte TLV int asked the server for 1 TiB)."""
        record = dict(_RECORDS[0].to_wire(), payload=5_000_000)
        with pytest.raises(IntegrityError, match="payload must be bytes"):
            Record.from_wire(_NAME, record)
        for field, value in (("digest", 3_000_000), ("signature", 7)):
            with pytest.raises(IntegrityError, match=f"{field} must be bytes"):
                Heartbeat.from_wire(dict(_HEARTBEAT.to_wire(), **{field: value}))
        with pytest.raises(NameError_):
            GdpName(32)
        with pytest.raises(NameError_, match="signature must be bytes"):
            Metadata.from_wire(dict(_METADATA.to_wire(), signature=64))
        adcert = _CHAIN.adcert.to_wire()
        with pytest.raises(DelegationError, match="signature must be bytes"):
            AdCert.from_wire(dict(adcert, signature=64))
        shard_map = ShardMap.issue(_WRITER_KEY, 1, [_NAME], [_NAME]).to_wire()
        with pytest.raises(CapsuleError, match="signature must be bytes"):
            ShardMap.from_wire(dict(shard_map, signature=64))
        with pytest.raises(SignatureError, match="must be bytes"):
            VerifyingKey.from_bytes(33)

    def test_huge_int_payload_in_append_batch_is_refused(self):
        server = _server()
        server.host_capsule(_METADATA, _CHAIN)
        body = dict(_substituted(("records", 0, "payload"), 2**40), op="append_batch")
        pdu = Pdu(_SENDER, server.name, pdutypes.T_DATA, body)
        reply = dispatch_op(server, pdu, body)
        assert reply["error_kind"] == "handler_error"
        assert "payload must be bytes" in reply["error"]
