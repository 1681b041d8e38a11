"""Secure responses: signature mode, HMAC mode, replay binding."""

import pytest

from repro.crypto import SigningKey
from repro.crypto.hmac_session import SessionKey
from repro.delegation import AdCert, ServiceChain
from repro.errors import IntegrityError, SignatureError
from repro.naming import GdpName, make_capsule_metadata, make_server_metadata
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
            wrapped, client=CLIENT, corr_id=42,
            capsule=world["capsule_md"].name,
        )
        assert body == {"ok": True, "value": 7}
        assert server == world["server_md"].name

    def test_without_chain(self, world):
        wrapped = sign_response(
            world["server"], world["server_md"], None, CLIENT, 1, {"ok": True}
        )
        verify_signed_response(wrapped, client=CLIENT, corr_id=1)

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
            verify_signed_response(wrapped, client=CLIENT, corr_id=2)

    def test_wrong_client_rejected(self, world):
        wrapped = sign_response(
            world["server"], world["server_md"], None, CLIENT, 1, {"ok": True}
        )
        with pytest.raises(SignatureError):
            verify_signed_response(
                wrapped, client=GdpName(b"\x88" * 32), corr_id=1
            )

    def test_tampered_body_rejected(self, world):
        wrapped = sign_response(
            world["server"], world["server_md"], None, CLIENT, 1,
            {"ok": True, "value": 7},
        )
        wrapped["body"]["value"] = 8
        with pytest.raises(SignatureError):
            verify_signed_response(wrapped, client=CLIENT, corr_id=1)

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
            client_side, wrapped, client=CLIENT, corr_id=9
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
        wrapped["body"]["ok"] = False
        with pytest.raises(IntegrityError):
            verify_mac_response(client_side, wrapped, client=CLIENT, corr_id=9)

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
