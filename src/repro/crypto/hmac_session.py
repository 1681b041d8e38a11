"""HMAC session keys for secure responses (§V, "Secure Responses").

The paper's steady-state optimization: a client and a DataCapsule-server
establish a shared secret alongside the first signed request/response,
then authenticate subsequent messages with HMAC instead of signatures,
"achiev[ing] a steady state byte overhead roughly similar to TLS".

The handshake here is an ephemeral ECDH on P-256 authenticated by the
parties' long-term ECDSA keys (the server's key is reachable from the
capsule name via its AdCert chain, so the chain of trust starts "from the
name of the object itself").  Key derivation is HKDF-SHA256 (RFC 5869)
implemented on the stdlib ``hmac``.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import secrets

from repro.crypto import ec
from repro.crypto.keys import SigningKey, VerifyingKey
from repro.errors import IntegrityError, SignatureError

__all__ = ["hkdf", "SessionKey", "Handshake"]


def hkdf(ikm: bytes, salt: bytes, info: bytes, length: int = 32) -> bytes:
    """HKDF-SHA256 extract-and-expand (RFC 5869)."""
    prk = _hmac.new(salt or b"\x00" * 32, ikm, hashlib.sha256).digest()
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = _hmac.new(
            prk, block + info + bytes([counter]), hashlib.sha256
        ).digest()
        okm += block
        counter += 1
    return okm[:length]


class SessionKey:
    """A directional pair of HMAC keys derived from a handshake."""

    __slots__ = ("send_key", "recv_key")

    def __init__(self, send_key: bytes, recv_key: bytes):
        self.send_key = send_key
        self.recv_key = recv_key

    def mac(self, message: bytes) -> bytes:
        """Authenticate an outgoing message."""
        return _hmac.new(self.send_key, message, hashlib.sha256).digest()

    def check(self, message: bytes, tag: bytes) -> None:
        """Verify an incoming message's MAC; raises
        :class:`IntegrityError` on mismatch."""
        expected = _hmac.new(self.recv_key, message, hashlib.sha256).digest()
        if not _hmac.compare_digest(expected, tag):
            raise IntegrityError("HMAC verification failed")


class Handshake:
    """One side of an authenticated ephemeral-ECDH key exchange.

    Usage (client side)::

        hs = Handshake(client_signing_key)
        offer = hs.offer()                      # send to server
        session = hs.finish(server_reply, server_verifying_key)

    The *offer* is the ephemeral public point plus a signature over it by
    the party's long-term key, binding the ephemeral key to an identity.
    """

    def __init__(self, identity: SigningKey, _ephemeral: int | None = None):
        self._identity = identity
        self._eph_secret = (
            _ephemeral
            if _ephemeral is not None
            else secrets.randbelow(ec.N - 1) + 1
        )
        self._eph_public = ec.scalar_mult(self._eph_secret, ec.GENERATOR)

    def offer(self) -> dict:
        """The signed ephemeral-key offer to send to the peer."""
        eph_bytes = ec.encode_point(self._eph_public)
        return {
            "ephemeral": eph_bytes,
            "identity": self._identity.public.to_bytes(),
            "signature": self._identity.sign(b"gdp.handshake" + eph_bytes),
        }

    @staticmethod
    def _verify_offer(offer: dict, expected_identity: VerifyingKey) -> ec.Point:
        identity = VerifyingKey.from_bytes(offer["identity"])
        if identity != expected_identity:
            raise SignatureError("handshake identity mismatch")
        if not identity.verify(
            b"gdp.handshake" + offer["ephemeral"], offer["signature"]
        ):
            raise SignatureError("handshake signature invalid")
        try:
            return ec.decode_point(offer["ephemeral"])
        except ValueError as exc:
            raise SignatureError(f"bad ephemeral point: {exc}") from exc

    def finish(
        self, peer_offer: dict, peer_identity: VerifyingKey, initiator: bool
    ) -> SessionKey:
        """Complete the exchange with the peer's offer.

        ``initiator`` disambiguates the directional keys: the initiator's
        send key is the responder's recv key and vice versa.
        """
        peer_point = self._verify_offer(peer_offer, peer_identity)
        shared = ec.scalar_mult(self._eph_secret, peer_point)
        if shared.is_infinity:
            raise SignatureError("degenerate ECDH shared secret")
        ikm = shared.x.to_bytes(32, "big")
        salt = bytes(
            a ^ b
            for a, b in zip(
                hashlib.sha256(self._identity.public.to_bytes()).digest(),
                hashlib.sha256(peer_identity.to_bytes()).digest(),
            )
        )
        key_i2r = hkdf(ikm, salt, b"gdp.session.i2r")
        key_r2i = hkdf(ikm, salt, b"gdp.session.r2i")
        if initiator:
            return SessionKey(send_key=key_i2r, recv_key=key_r2i)
        return SessionKey(send_key=key_r2i, recv_key=key_i2r)
