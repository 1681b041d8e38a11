"""Cryptographic delegations: AdCerts and RtCerts (§V, §VII).

Two certificate forms knit the federation together:

**AdCert** — "a signed statement by the DataCapsule-owner that a certain
DataCapsule-server is allowed to respond for the DataCapsule in
question".  The delegate may be an individual server or a storage
*organization* ("in practice, a DataCapsule-owner issues such delegations
to storage organizations instead of individual DataCapsule-servers",
fn. 8), in which case any server presenting a membership credential from
that organization inherits the delegation.  AdCerts also carry the
owner's *scope* policy: the set of routing domains the capsule may
reside in or be routed through (§VII: "any restriction on where can a
DataCapsule be routed through are specified by the DataCapsule-owner at
the time of issuance of AdCert").

**Placement** — the owner's versioned statement of which servers hold a
capsule's replicas (§VI: "Replicas can be migrated ... such placement
decisions are made by the owner of a DataCapsule").

**RtCert** — "a signed statement issued by a physical machine (e.g. a
DataCapsule-server) to a GDP-router authorizing the GDP-router to
send/receive messages on behalf of DataCapsule-server".

Both are expiring statements over canonical encodings; verification
needs only the issuer's public key, which is itself reachable from a
flat name via self-certifying metadata — no PKI anywhere.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro import encoding
from repro.crypto.keys import SigningKey, VerifyingKey
from repro.errors import DelegationError, expect_bytes
from repro.naming.names import GdpName

__all__ = ["AdCert", "RtCert", "OrgMembership", "SubGrant", "Placement"]


class _SignedStatement:
    """An expiring, domain-tagged signed statement binding two names.

    A subclass declares its tags and fields — ``DOMAIN`` (signature
    domain), ``KIND`` (the signed body's leading tag), ``NAMES`` (the
    two bound names, in constructor, body and wire order) and
    ``MISMATCH`` (which names :meth:`verify` can be asked to check, and
    the error each raises) — and inherits construction, issuing,
    verification and the wire form.

    Signed bodies canonicalize ``expires_at`` to whole milliseconds
    with ``round()`` — ``int()`` truncation is not idempotent across a
    wire round-trip (``t/1000*1000`` can land just below the integer),
    which would break the signature of any rebuilt certificate.
    """

    DOMAIN: bytes = b""
    KIND: str = ""
    NAMES: tuple[str, str] = ("", "")
    MISMATCH: dict[str, str] = {}

    __slots__ = ("expires_at", "signature")

    def __init__(
        self,
        first: GdpName,
        second: GdpName,
        expires_at: float | None = None,
        signature: bytes = b"",
    ):
        setattr(self, self.NAMES[0], first)
        setattr(self, self.NAMES[1], second)
        self.expires_at = expires_at
        self.signature = expect_bytes(signature, "signature", DelegationError)

    @classmethod
    def issue(
        cls,
        issuer: SigningKey,
        first: GdpName,
        second: GdpName,
        *,
        expires_at: float | None = None,
        **extras: Any,
    ):
        """Create and sign the statement."""
        statement = cls(first, second, expires_at=expires_at, **extras)
        statement.signature = issuer.sign(statement.signing_preimage())
        return statement

    def _extras(self) -> dict:
        """Wire fields between the names and the expiry (signed too)."""
        return {}

    @staticmethod
    def _extras_from_wire(wire: dict) -> dict:
        """The constructor keywords :meth:`_extras` round-trips to."""
        return {}

    def to_wire(self) -> dict:
        """Wire-encodable representation."""
        first, second = self.NAMES
        return {
            first: getattr(self, first).raw,
            second: getattr(self, second).raw,
            **self._extras(),
            "expires_at": -1 if self.expires_at is None
            else round(self.expires_at * 1000),
            "signature": self.signature,
        }

    @classmethod
    def from_wire(cls, wire: dict):
        """Rebuild from a wire form; raises on malformed input."""
        try:
            raw_expiry = wire["expires_at"]
            return cls(
                *(GdpName(wire[field]) for field in cls.NAMES),
                expires_at=None if raw_expiry == -1 else raw_expiry / 1000,
                signature=wire["signature"],
                **cls._extras_from_wire(wire),
            )
        except (KeyError, TypeError) as exc:
            raise DelegationError(f"malformed {cls.__name__}: {exc}") from exc

    def _body(self) -> list:
        """What is signed: the kind tag, then every wire field but the
        signature, in wire order."""
        fields = self.to_wire()
        del fields["signature"]
        return [self.KIND, *fields.values()]

    def signing_preimage(self) -> bytes:
        """The exact bytes the signature covers."""
        return self.DOMAIN + encoding.encode(self._body())

    def verify(
        self,
        issuer_key: VerifyingKey,
        *,
        now: float = 0.0,
        **expected: GdpName | None,
    ) -> None:
        """Full check: the optional bindings to expected names (the
        ``MISMATCH`` keywords), not expired, signed by the issuer."""
        for field, message in self.MISMATCH.items():
            name = expected.pop(field, None)
            if name is not None and getattr(self, field) != name:
                raise DelegationError(message)
        if expected:
            raise TypeError(
                f"{type(self).__name__}.verify() cannot bind {sorted(expected)}"
            )
        self.check_expiry(now)
        self.check_signature(issuer_key)

    def check_expiry(self, now: float) -> None:
        """Raise :class:`DelegationError` if expired at *now*."""
        if self.expires_at is not None and now > self.expires_at:
            raise DelegationError(
                f"{type(self).__name__} expired at {self.expires_at} "
                f"(now {now})"
            )

    def check_signature(self, issuer_key: VerifyingKey) -> None:
        """Raise :class:`DelegationError` on a bad signature."""
        if not issuer_key.verify(self.signing_preimage(), self.signature):
            raise DelegationError(
                f"{type(self).__name__} signature does not verify against "
                "the issuer key"
            )

    def __repr__(self) -> str:
        names = ", ".join(
            f"{field}={getattr(self, field).human()}" for field in self.NAMES
        )
        return f"{type(self).__name__}({names})"


class AdCert(_SignedStatement):
    """Owner-signed delegation: *delegate* may store / respond for
    *capsule*, within *scopes* (empty = unrestricted)."""

    DOMAIN = b"gdp.adcert"
    KIND = "adcert"
    NAMES = ("capsule", "delegate")
    MISMATCH = {
        "capsule": "AdCert is for a different capsule",
        "delegate": "AdCert delegates to a different principal",
    }

    __slots__ = ("capsule", "delegate", "scopes")

    def __init__(
        self,
        capsule: GdpName,
        delegate: GdpName,
        scopes: Sequence[str] = (),
        expires_at: float | None = None,
        signature: bytes = b"",
    ):
        super().__init__(capsule, delegate, expires_at, signature)
        self.scopes = tuple(scopes)

    def _extras(self) -> dict:
        return {"scopes": list(self.scopes)}

    @staticmethod
    def _extras_from_wire(wire: dict) -> dict:
        return {"scopes": [str(s) for s in wire["scopes"]]}

    def allows_domain(self, domain: str) -> bool:
        """Scope policy: is the capsule allowed to be visible in
        *domain*?  A scope entry matches the domain itself and its
        entire subtree (dotted-suffix match, DNS style)."""
        if not self.scopes:
            return True
        return any(
            domain == scope or domain.startswith(scope + ".")
            for scope in self.scopes
        )

    def __repr__(self) -> str:
        return f"{super().__repr__()[:-1]}, scopes={list(self.scopes)})"


class RtCert(_SignedStatement):
    """Principal-signed routing delegation: *router* may send/receive on
    behalf of *principal* (a server, client, or other endpoint)."""

    DOMAIN = b"gdp.rtcert"
    KIND = "rtcert"
    NAMES = ("principal", "router")
    MISMATCH = {"router": "RtCert names a different router"}

    __slots__ = NAMES


class OrgMembership(_SignedStatement):
    """Organization-signed membership: *member* (a server) belongs to
    *org* — the credential a server shows when an AdCert delegates to a
    storage organization rather than to the server directly (§V fn. 8,
    §VII "membership in a given organization")."""

    DOMAIN = b"gdp.orgmember"
    KIND = "orgmember"
    NAMES = ("org", "member")
    MISMATCH = {"member": "membership names a different member"}

    __slots__ = NAMES


class SubGrant(_SignedStatement):
    """Owner-signed subscription credential (§VII fn. 9).

    "Such credentials enable network-level routing restrictions, such as
    restricting subscription to DataCapsule updates (i.e. who can join a
    secure multicast tree associated with a given name) or to stop
    denial of service attacks at the border of a trust domain."

    A capsule whose metadata sets ``restricted_subscribe`` requires a
    valid SubGrant naming the subscriber before a server will register
    the subscription.
    """

    DOMAIN = b"gdp.subgrant"
    KIND = "subgrant"
    NAMES = ("capsule", "subscriber")
    MISMATCH = {
        "capsule": "SubGrant is for a different capsule",
        "subscriber": "SubGrant names a different subscriber",
    }

    __slots__ = NAMES


class Placement:
    """Owner-signed placement: the servers holding *capsule*'s replicas
    as of *version*.  Every ``host`` op carries one, and a server acts
    only on one newer than it holds (see
    :meth:`repro.server.dcserver.DataCapsuleServer.host_capsule`)."""

    DOMAIN = b"gdp.placement"

    __slots__ = ("capsule", "version", "servers", "signature")

    def __init__(
        self,
        capsule: GdpName,
        version: int,
        servers: Sequence[GdpName],
        signature: bytes = b"",
    ):
        if type(version) is not int or version < 1:
            raise DelegationError("placement version must be a positive int")
        self.capsule = capsule
        self.version = version
        self.servers = sorted(set(servers), key=lambda name: name.raw)
        self.signature = expect_bytes(signature, "placement signature", DelegationError)

    def signing_preimage(self) -> bytes:
        """The exact bytes the owner signature covers."""
        return self.DOMAIN + encoding.encode(
            [self.capsule.raw, self.version, [name.raw for name in self.servers]]
        )

    def verify(self, owner_key: VerifyingKey) -> None:
        """Raise unless the owner signed exactly this placement."""
        if not owner_key.verify(self.signing_preimage(), self.signature):
            raise DelegationError("placement signature does not verify")

    def to_wire(self) -> dict:
        """Wire-encodable representation."""
        return {
            "capsule": self.capsule.raw,
            "version": self.version,
            "servers": [name.raw for name in self.servers],
            "signature": self.signature,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "Placement":
        """Rebuild from a wire form; raises on malformed input."""
        try:
            servers = [GdpName(raw) for raw in wire["servers"]]
            return cls(
                GdpName(wire["capsule"]), wire["version"], servers, wire["signature"]
            )
        except (KeyError, TypeError) as exc:
            raise DelegationError(f"malformed placement: {exc}") from exc
