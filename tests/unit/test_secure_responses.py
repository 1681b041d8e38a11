"""Secure responses: signature mode, HMAC mode, replay binding."""

import pytest

from repro import encoding
from repro.crypto import SigningKey
from repro.crypto.hmac_session import SessionKey
from repro.delegation import AdCert, ServiceChain
from repro.errors import EncodingError, IntegrityError, SecurityError, SignatureError
from repro.naming import GdpName, make_capsule_metadata, make_server_metadata
from repro.routing.pdu import HEADER_BYTES, T_RESPONSE, Pdu
from repro.runtime.middleware import NodeMiddleware
from repro.server.secure import (
    mac_response,
    sign_response,
    verify_mac_response,
    verify_signed_response,
)

CLIENT = GdpName(b"\x77" * 32)


@pytest.fixture(scope="module")
def world():
    owner = SigningKey.from_seed(b"sr-owner")
    writer = SigningKey.from_seed(b"sr-writer")
    server = SigningKey.from_seed(b"sr-server")
    capsule_md = make_capsule_metadata(owner, writer.public)
    server_md = make_server_metadata(server, server.public)
    adcert = AdCert.issue(owner, capsule_md.name, server_md.name)
    chain = ServiceChain(capsule_md, adcert, server_md)
    return {
        "server": server,
        "server_md": server_md,
        "capsule_md": capsule_md,
        "chain": chain,
    }


class TestSignedResponses:
    def test_roundtrip(self, world):
        wrapped = sign_response(
            world["server"], world["server_md"], world["chain"],
            CLIENT, 42, {"ok": True, "value": 7},
        )
        body, server = verify_signed_response(
            _received(wrapped), client=CLIENT, corr_id=42,
            capsule=world["capsule_md"].name,
        )
        assert body == {"ok": True, "value": 7}
        assert server == world["server_md"].name

    def test_without_chain(self, world):
        wrapped = sign_response(
            world["server"], world["server_md"], None, CLIENT, 1, {"ok": True}
        )
        verify_signed_response(_received(wrapped), client=CLIENT, corr_id=1)

    def test_capsule_required_but_missing_chain(self, world):
        wrapped = sign_response(
            world["server"], world["server_md"], None, CLIENT, 1, {"ok": True}
        )
        with pytest.raises(IntegrityError):
            verify_signed_response(
                wrapped, client=CLIENT, corr_id=1,
                capsule=world["capsule_md"].name,
            )

    def test_wrong_corr_id_rejected(self, world):
        """The response for one request cannot answer another (replay)."""
        wrapped = sign_response(
            world["server"], world["server_md"], None, CLIENT, 1, {"ok": True}
        )
        with pytest.raises(SignatureError):
            verify_signed_response(_received(wrapped), client=CLIENT, corr_id=2)

    def test_wrong_client_rejected(self, world):
        wrapped = sign_response(
            world["server"], world["server_md"], None, CLIENT, 1, {"ok": True}
        )
        with pytest.raises(SignatureError):
            verify_signed_response(
                _received(wrapped), client=GdpName(b"\x88" * 32), corr_id=1
            )

    def test_tampered_body_rejected(self, world):
        wrapped = sign_response(
            world["server"], world["server_md"], None, CLIENT, 1,
            {"ok": True, "value": 7},
        )
        wrapped["body"] = {"ok": True, "value": 8}
        with pytest.raises(SignatureError):
            verify_signed_response(_received(wrapped), client=CLIENT, corr_id=1)

    def test_chain_for_wrong_capsule_rejected(self, world):
        wrapped = sign_response(
            world["server"], world["server_md"], world["chain"],
            CLIENT, 1, {"ok": True},
        )
        other = GdpName(b"\x99" * 32)
        with pytest.raises(IntegrityError):
            verify_signed_response(
                wrapped, client=CLIENT, corr_id=1, capsule=other
            )

    def test_impostor_server_rejected(self, world):
        """An on-path adversary signing with its own key cannot satisfy
        the chain binding (§III-D)."""
        impostor = SigningKey.from_seed(b"impostor")
        impostor_md = make_server_metadata(impostor, impostor.public)
        wrapped = sign_response(
            impostor, impostor_md, world["chain"], CLIENT, 1, {"ok": True}
        )
        with pytest.raises(IntegrityError):
            verify_signed_response(
                wrapped, client=CLIENT, corr_id=1,
                capsule=world["capsule_md"].name,
            )

    def test_malformed_rejected(self):
        with pytest.raises(IntegrityError):
            verify_signed_response({}, client=CLIENT, corr_id=1)


class TestMacResponses:
    def make_sessions(self):
        shared_a, shared_b = b"\x01" * 32, b"\x02" * 32
        server_side = SessionKey(send_key=shared_a, recv_key=shared_b)
        client_side = SessionKey(send_key=shared_b, recv_key=shared_a)
        return server_side, client_side

    def test_roundtrip(self):
        server_side, client_side = self.make_sessions()
        wrapped = mac_response(server_side, CLIENT, 9, {"ok": True})
        body = verify_mac_response(
            client_side, _received(wrapped), client=CLIENT, corr_id=9
        )
        assert body == {"ok": True}

    def test_wrong_corr_id_rejected(self):
        server_side, client_side = self.make_sessions()
        wrapped = mac_response(server_side, CLIENT, 9, {"ok": True})
        with pytest.raises(IntegrityError):
            verify_mac_response(client_side, wrapped, client=CLIENT, corr_id=10)

    def test_tampered_body_rejected(self):
        server_side, client_side = self.make_sessions()
        wrapped = mac_response(server_side, CLIENT, 9, {"ok": True})
        wrapped["body"] = {"ok": False}
        with pytest.raises(IntegrityError):
            verify_mac_response(client_side, _received(wrapped), client=CLIENT, corr_id=9)

    def test_wrong_session_rejected(self):
        server_side, _ = self.make_sessions()
        stranger = SessionKey(b"\x03" * 32, b"\x04" * 32)
        wrapped = mac_response(server_side, CLIENT, 9, {"ok": True})
        with pytest.raises(IntegrityError):
            verify_mac_response(stranger, wrapped, client=CLIENT, corr_id=9)

    def test_mode_mismatch_rejected(self, world):
        _, client_side = self.make_sessions()
        signed = sign_response(
            world["server"], world["server_md"], None, CLIENT, 1, {"ok": True}
        )
        with pytest.raises(IntegrityError):
            verify_mac_response(client_side, signed, client=CLIENT, corr_id=1)

    def test_byte_overhead_smaller_than_signature(self, world):
        """The paper's point: HMAC steady state is cheaper on the wire."""
        from repro import encoding

        server_side, _ = self.make_sessions()
        body = {"ok": True, "data": b"x" * 100}
        signed = sign_response(
            world["server"], world["server_md"], world["chain"],
            CLIENT, 1, body,
        )
        maced = mac_response(server_side, CLIENT, 1, body)
        assert len(encoding.encode(maced)) < len(encoding.encode(signed)) / 3


# -- the body is encoded once: sign the bytes you ship, verify the bytes
# you received -------------------------------------------------------------

SERVER = GdpName(b"\x66" * 32)
READ_BODY = {
    "ok": True,
    "records": [{"seqno": 3, "payload": b"r" * 200, "pointers": [[2, b"\x01" * 32]]}],
    "proof": {"headers": [{"seqno": n, "payload_hash": b"\x02" * 32} for n in range(8)]},
}


def _replies(world, body):
    """A ``sig`` and an ``hmac`` reply to request 5 carrying *body*, each
    with the opener that takes it."""
    server_side, client_side = TestMacResponses().make_sessions()
    signed = sign_response(
        world["server"], world["server_md"], world["chain"], CLIENT, 5, body
    )
    maced = mac_response(server_side, CLIENT, 5, body)
    return [
        (signed, lambda w: verify_signed_response(w, client=CLIENT, corr_id=5)[0]),
        (maced, lambda w: verify_mac_response(client_side, w, client=CLIENT, corr_id=5)),
    ]


def _map(*encoded: bytes) -> bytes:
    """An encoded map from its keys' and values' encodings, in order."""
    inner = b"".join(encoded)
    return b"D" + encoding.encode_uvarint(len(inner)) + inner


def _shipped(wrapped) -> bytes:
    return Pdu(SERVER, CLIENT, T_RESPONSE, wrapped, corr_id=5).encode_wire()


def _received(wrapped) -> dict:
    """*wrapped* as a client receives it: shipped, then decoded."""
    return Pdu.decode_wire(_shipped(wrapped)).payload


@pytest.fixture()
def encode_calls(monkeypatch):
    """Every ``encoding.encode`` call as ``(value, encoded length)``."""
    calls = []
    original = encoding.encode

    def counted(value):
        out = original(value)
        calls.append((value, len(out)))
        return out

    monkeypatch.setattr(encoding, "encode", counted)
    return calls


class TestBodyEncodedOnce:
    def test_sig_and_hmac_round_trip_over_the_wire(self, world):
        for wrapped, opened in _replies(world, READ_BODY):
            received = Pdu.decode_wire(_shipped(wrapped))
            carried = received.payload["body"]
            assert isinstance(carried, encoding.Encoded) and carried.undecoded
            assert carried.data == encoding.encode(READ_BODY)
            assert opened(received.payload) == READ_BODY
            assert carried.undecoded  # the opener decoded the bytes it checked

    def test_a_byte_flipped_inside_the_body_span_is_refused(self, world):
        for wrapped, opened in _replies(world, READ_BODY):
            wire = _shipped(wrapped)
            start = wire.index(wrapped["body"].data)
            # a byte of the record payload, so the frame still parses
            flip = wire.index(b"r" * 200, start) + 17
            tampered = wire[:flip] + bytes([wire[flip] ^ 0x01]) + wire[flip + 1 :]
            received = Pdu.decode_wire(tampered)
            with pytest.raises(SecurityError):
                opened(received.payload)

    def test_non_canonical_body_bytes_are_refused_when_used(self, world):
        """Framing holds, the inside does not: the PDU parses, the
        opener refuses (no signature covers such bytes)."""
        for wrapped, opened in _replies(world, {"ok": True, "n": 1}):
            # ``n`` as a non-minimal int: 1 with a leading zero byte
            bad = _map(encoding.encode("n"), b"I\x02\x00\x01", encoding.encode("ok"),
                       encoding.encode(True))
            payload = _map(encoding.encode("auth"), encoding.encode(wrapped["auth"]),
                           encoding.encode("body"), bad)
            received = Pdu.decode_wire(_shipped(wrapped)[:HEADER_BYTES] + payload)
            assert received.payload["body"].data == bad
            with pytest.raises(SecurityError):
                opened(received.payload)
            with pytest.raises(EncodingError):
                received.payload["body"].value

    def test_a_view_handed_out_before_opening_is_re_encoded(self, world):
        """A decoded reply whose body a middleware reads and changes in
        place is refused: the opener takes only received bytes that
        nothing has decoded, so no view is ever re-encoded and checked."""
        for wrapped, opened in _replies(world, READ_BODY):
            received = Pdu.decode_wire(_shipped(wrapped))
            received.payload["body"]["records"][0]["payload"] = b"evil"
            with pytest.raises(SecurityError):
                opened(received.payload)

    def test_signing_a_read_reply_encodes_its_body_once(
        self, world, monkeypatch, encode_calls
    ):
        """Signing (or MACing) and shipping walk the body once; the
        signature preimage and the reply PDU splice those bytes."""
        walked = []
        original = encoding._encode_into

        def counted(value, out):
            walked.append(value)
            original(value, out)

        monkeypatch.setattr(encoding, "_encode_into", counted)
        for wrapped, _ in _replies(world, READ_BODY):
            _shipped(wrapped)
        # two replies, a sig one and an hmac one: one encode, one walk each
        assert sum(value is READ_BODY for value, _ in encode_calls) == 2
        assert sum(value is READ_BODY for value in walked) == 2

    def test_opening_a_wire_decoded_reply_encodes_no_body(self, world, encode_calls):
        for wrapped, opened in _replies(world, READ_BODY):
            received = Pdu.decode_wire(_shipped(wrapped))
            opened(received.payload)  # warm the chain / metadata caches
            received = Pdu.decode_wire(_shipped(wrapped))
            encode_calls.clear()
            assert opened(received.payload) == READ_BODY
            # the preimage head ``[client, corr_id]``, none of the body
            assert sum(size for _, size in encode_calls) <= 256


class _BodyMutator(NodeMiddleware):
    """A client node middleware: notes each reply body as it arrives and,
    once armed, changes a decoded reply's record payload in place."""

    def __init__(self):
        self.armed = False
        self.carried = []

    def inbound(self, node, pdu, sender):
        body = pdu.payload.get("body") if isinstance(pdu.payload, dict) else None
        if isinstance(body, encoding.Encoded):
            self.carried.append(body.undecoded)
            if self.armed and body.get("records"):
                body["records"][0]["payload"] = b"mutated in place"
        return None


@pytest.mark.transport
def test_loopback_reply_mutated_after_decode_is_refused():
    """Over real loopback TCP the client gets the body as received bytes
    and reads the record; a reply a node middleware changes after
    decoding is refused."""
    from repro.client import GdpClient, OwnerConsole
    from repro.routing import GdpRouter, RoutingDomain
    from repro.runtime.context import AsyncioContext
    from repro.runtime.socketnet import SocketNetwork
    from repro.runtime.transport import local_pair
    from repro.server import DataCapsuleServer

    ctx = AsyncioContext()
    net = SocketNetwork(ctx, seed=5)
    router = GdpRouter(net, "lb_router", RoutingDomain("global", clock=lambda: ctx.now))
    server = DataCapsuleServer(net, "lb_server")
    s_end, _ = local_pair(ctx, server.transport, router.transport, "lb_s>r", "lb_r>s")
    server.attach_channel(s_end, router.name)
    _, port = ctx.loop.run_until_complete(router.transport.listen("127.0.0.1", 0))
    client = GdpClient(SocketNetwork(ctx, seed=6), "lb_client")
    channel = ctx.loop.run_until_complete(client.transport.dial("127.0.0.1", port))
    client.attach_channel(channel, GdpName(channel.remote_name_raw))
    mutator = _BodyMutator()
    client.pipeline.use(mutator)
    writer_key = SigningKey.from_seed(b"lb-writer")
    console = OwnerConsole(client, SigningKey.from_seed(b"lb-owner"))

    def scenario():
        yield server.advertise()
        yield client.advertise()
        metadata = console.design_capsule(writer_key.public)
        yield from console.place_capsule(metadata, [server.metadata])
        yield 0.2
        writer = client.open_writer(metadata, writer_key)
        yield from writer.append(b"over the wire")
        got = yield from client.read(metadata.name, 1)
        assert got.record.payload == b"over the wire"
        mutator.armed = True
        with pytest.raises(SecurityError):
            yield from client.read(metadata.name, 1)
        return True

    try:
        assert ctx.run_process(scenario(), "loopback")
        assert mutator.carried and all(mutator.carried)
    finally:
        for node in (client, server, router):
            node.transport.close()
        ctx.loop.close()
