"""Secure responses: connectionless trust from the capsule name (§V).

"Our protocol starts the chain of trust from the name of the object
itself and quickly translates to efficient HMAC based secure
acknowledgments."

A response body is wrapped with authentication evidence in one of two
modes:

``sig``
    The server signs ``(client, corr_id, body)`` with its own key and
    attaches its metadata + the AdCert service chain.  The client
    verifies: chain links the *capsule name it asked about* to this
    server, and the signature binds this exact response to this exact
    request (corr_id) for this client — no replay, no substitution, and
    an honest provider "can't be framed by an adversary" because only it
    can produce the signature.

``hmac``
    After a one-time authenticated ECDH handshake, responses carry an
    HMAC instead — the steady-state fast path with "byte overhead
    roughly similar to TLS".

The corr_id binding is what makes this safe *connectionless*: each
request/response pair is independently verifiable, so anycast can move
the conversation between replicas at any time (§III-D).

:func:`open_response` is the one way any node accepts a server's reply:
a client's answer, a sibling's durability ack or anti-entropy reply.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import encoding
from repro.crypto.hmac_session import SessionKey
from repro.crypto.keys import SigningKey
from repro.delegation.chain import ServiceChain
from repro.errors import EncodingError, IntegrityError, SignatureError, expect_bytes
from repro.naming.metadata import Metadata
from repro.naming.names import GdpName

__all__ = [
    "open_response",
    "sign_response",
    "verify_signed_response",
    "mac_response",
    "verify_mac_response",
]

_DOMAIN = b"gdp.response"


def _preimage(client: GdpName, corr_id: int, body: bytes) -> bytes:
    """``[client, corr_id, body]`` encoded, from *body*'s encoding."""
    return _DOMAIN + encoding.extend_list(encoding.encode([client.raw, corr_id]), body)


def _opened(
    body: Any, client: GdpName, corr_id: int, check: Callable[[bytes], Any]
) -> dict:
    """Run *check* over the preimage of *body*'s received bytes; return
    the body decoded from those bytes."""
    if not isinstance(body, encoding.Encoded) or not body.undecoded:
        raise IntegrityError("secure response body is not its received bytes")
    try:
        check(_preimage(client, corr_id, body.data))
        body = encoding.decode(body.data)
    except EncodingError as exc:
        raise IntegrityError(f"malformed secure response body: {exc}") from exc
    if not isinstance(body, dict):
        raise IntegrityError("secure response body is not a map")
    return body


def sign_response(
    server_key: SigningKey,
    server_metadata: Metadata,
    chain: ServiceChain | None,
    client: GdpName,
    corr_id: int,
    body: Any,
) -> dict:
    """Wrap *body*, encoded once, in a signed secure response."""
    body = encoding.Encoded(encoding.encode(body), body)
    wrapped = {
        "body": body,
        "auth": {
            "mode": "sig",
            "server_metadata": server_metadata.to_wire(),
            "signature": server_key.sign(_preimage(client, corr_id, body.data)),
        },
    }
    if chain is not None:
        wrapped["auth"]["chain"] = chain.to_wire()
    return wrapped


def verify_signed_response(
    wrapped: dict,
    *,
    client: GdpName,
    corr_id: int,
    capsule: GdpName | None = None,
    now: float = 0.0,
) -> tuple[dict, GdpName]:
    """Verify a signed secure response; returns ``(body, name of the
    server just verified)``.

    When *capsule* is given, the attached service chain must prove the
    responding server is delegated for that capsule — this is what stops
    "an adversary that ... just happens to be in the path" (§III-D) from
    answering in a real server's stead.
    """
    try:
        auth = wrapped["auth"]
        body = wrapped["body"]
        if auth["mode"] != "sig":
            raise IntegrityError(f"expected sig response, got {auth['mode']!r}")
        server_metadata = Metadata.from_wire(auth["server_metadata"])
        signature = expect_bytes(
            auth["signature"], "response signature", IntegrityError
        )
    except (KeyError, TypeError) as exc:
        raise IntegrityError(f"malformed secure response: {exc}") from exc
    server_metadata.verify()

    def check(preimage: bytes) -> None:
        if not server_metadata.self_key.verify(preimage, signature):
            raise SignatureError("secure response signature invalid")

    body = _opened(body, client, corr_id, check)
    if capsule is not None and body.get("ok"):
        # Error bodies assert no capsule data, so they need no chain —
        # a replica that does not (yet) hold a record must be able to
        # say so; the signature still authenticates who said it.
        if "chain" not in auth:
            raise IntegrityError(
                "response lacks the delegation chain for the capsule"
            )
        chain = ServiceChain.from_wire(auth["chain"])
        chain.verify(now=now)
        if chain.capsule != capsule:
            raise IntegrityError("delegation chain is for another capsule")
        if chain.server != server_metadata.name:
            raise IntegrityError(
                "delegation chain names a different server than the signer"
            )
    return body, server_metadata.name


def open_response(
    wrapped: Any,
    *,
    requester: GdpName,
    corr_id: int,
    capsule: GdpName | None = None,
    server: GdpName | None = None,
    session: SessionKey | None = None,
    now: float = 0.0,
) -> tuple[dict, GdpName | None]:
    """Accept a DataCapsule-server's reply to *requester*'s request
    *corr_id*; returns ``(body, server that answered)``.  The body is
    verified but may be a refusal: acting on ``ok`` is the caller's.

    A ``sig`` reply is checked by :func:`verify_signed_response` (an
    ``ok`` one for *capsule* needs that capsule's delegation chain); an
    ``hmac`` reply needs the *session* shared with *server*.  When
    *server* is given, the reply must be that server's.  Anything else
    raises a :class:`~repro.errors.SecurityError`.
    """
    auth = wrapped.get("auth") if isinstance(wrapped, dict) else None
    if isinstance(auth, dict) and auth.get("mode") == "hmac":
        if session is None:
            raise IntegrityError("hmac response without a session")
        body = verify_mac_response(session, wrapped, client=requester, corr_id=corr_id)
        return body, server
    body, signer = verify_signed_response(
        wrapped, client=requester, corr_id=corr_id, capsule=capsule, now=now
    )
    if server is not None and signer != server:
        raise IntegrityError(f"response signed by {signer.human()}, not {server.human()}")
    return body, signer


def mac_response(
    session: SessionKey, client: GdpName, corr_id: int, body: Any
) -> dict:
    """Wrap *body*, encoded once, with the steady-state HMAC
    authenticator."""
    body = encoding.Encoded(encoding.encode(body), body)
    return {
        "body": body,
        "auth": {
            "mode": "hmac",
            "mac": session.mac(_preimage(client, corr_id, body.data)),
        },
    }


def verify_mac_response(
    session: SessionKey, wrapped: dict, *, client: GdpName, corr_id: int
) -> Any:
    """Verify an HMAC secure response; returns the body."""
    try:
        auth = wrapped["auth"]
        body = wrapped["body"]
        if auth["mode"] != "hmac":
            raise IntegrityError(f"expected hmac response, got {auth['mode']!r}")
        mac = expect_bytes(auth["mac"], "response mac", IntegrityError)
    except (KeyError, TypeError) as exc:
        raise IntegrityError(f"malformed secure response: {exc}") from exc
    return _opened(body, client, corr_id, lambda preimage: session.check(preimage, mac))
