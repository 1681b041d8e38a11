"""Signed metadata records — the preimages of flat GDP names.

Metadata "is essentially a list of key-value pairs signed by the
[entity]-owner, that describe immutable properties" (§V).  For a
DataCapsule the mandatory properties are the single writer's public
signature key and the owner's public key; servers, routers and
organizations carry at least their own public key.

The flat name is the domain-separated hash of ``(kind, properties)``.
The owner's signature is carried *alongside* the hashed content rather
than inside it, so verification is: (1) recompute the name from the
properties, (2) check the signature against the owner key found in the
properties.  A presented metadata record therefore self-certifies
against its name with no external PKI (Table I, "Federated
architecture").
"""

from __future__ import annotations

from typing import Any, Mapping

from repro import encoding
from repro.crypto import cache as _cache
from repro.crypto.keys import SigningKey, VerifyingKey
from repro.errors import NameError_, SignatureError, expect_bytes
from repro.naming.names import GdpName

__all__ = [
    "KIND_CAPSULE",
    "KIND_SERVER",
    "KIND_ROUTER",
    "KIND_ORGANIZATION",
    "KIND_CLIENT",
    "Metadata",
    "make_capsule_metadata",
    "make_server_metadata",
    "make_router_metadata",
    "make_organization_metadata",
    "make_client_metadata",
]

KIND_CAPSULE = "gdp.capsule"
KIND_SERVER = "gdp.server"
KIND_ROUTER = "gdp.router"
KIND_ORGANIZATION = "gdp.org"
KIND_CLIENT = "gdp.client"

_VALID_KINDS = frozenset(
    {KIND_CAPSULE, KIND_SERVER, KIND_ROUTER, KIND_ORGANIZATION, KIND_CLIENT}
)

# Property keys with architectural meaning.
PROP_OWNER_KEY = "owner_pub"
PROP_WRITER_KEY = "writer_pub"
PROP_SELF_KEY = "self_pub"
PROP_POINTER_STRATEGY = "pointer_strategy"
PROP_WRITER_MODE = "writer_mode"

MODE_SSW = "ssw"
MODE_QSW = "qsw"


class Metadata:
    """An immutable, signed, named metadata record."""

    __slots__ = ("kind", "properties", "signature", "_name")

    def __init__(self, kind: str, properties: Mapping[str, Any], signature: bytes):
        if kind not in _VALID_KINDS:
            raise NameError_(f"unknown metadata kind {kind!r}")
        if PROP_OWNER_KEY not in properties:
            raise NameError_(f"metadata must include {PROP_OWNER_KEY!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "properties", dict(properties))
        signature = expect_bytes(signature, "metadata signature", NameError_)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(
            self, "_name", GdpName.derive(kind, [kind, self.properties])
        )

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Metadata is immutable")

    @property
    def name(self) -> GdpName:
        """The flat name this metadata is the preimage of."""
        return self._name

    @property
    def owner_key(self) -> VerifyingKey:
        """The owner's verifying key."""
        return VerifyingKey.from_bytes(self.properties[PROP_OWNER_KEY])

    @property
    def writer_key(self) -> VerifyingKey:
        """The designated single writer's key (capsules only)."""
        if PROP_WRITER_KEY not in self.properties:
            raise NameError_("metadata has no writer key")
        return VerifyingKey.from_bytes(self.properties[PROP_WRITER_KEY])

    @property
    def self_key(self) -> VerifyingKey:
        """The entity's own key (servers / routers / organizations)."""
        if PROP_SELF_KEY not in self.properties:
            raise NameError_("metadata has no self key")
        return VerifyingKey.from_bytes(self.properties[PROP_SELF_KEY])

    def signing_preimage(self) -> bytes:
        """The exact bytes the signature covers."""
        return b"gdp.metadata" + encoding.encode([self.kind, self.properties])

    def verify(self, expected_name: GdpName | None = None) -> None:
        """Verify self-certification: name matches the content hash and
        the owner's signature is valid.  Raises on failure.  (The name
        hashes the signed content: one that passed is not re-checked.)"""
        if expected_name is not None and self._name != expected_name:
            raise NameError_(
                f"metadata hashes to {self._name!r}, expected {expected_name!r}"
            )
        if _cache.metadata_verified(self._name.raw, self.signature):
            return
        if not self.owner_key.verify(self.signing_preimage(), self.signature):
            raise SignatureError("metadata owner signature invalid")
        _cache.remember_metadata(self._name.raw, self.signature)

    def to_wire(self) -> dict:
        """Wire-encodable representation."""
        return {
            "kind": self.kind,
            "properties": self.properties,
            "signature": self.signature,
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "Metadata":
        """Rebuild from a wire form; raises on malformed input."""
        try:
            return cls(wire["kind"], dict(wire["properties"]), wire["signature"])
        except (KeyError, TypeError, ValueError) as exc:
            raise NameError_(f"malformed metadata: {exc}") from exc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Metadata):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.properties == other.properties
            and self.signature == other.signature
        )

    def __hash__(self) -> int:
        return hash((self.kind, self._name, self.signature))

    def __repr__(self) -> str:
        return f"Metadata(kind={self.kind}, name={self._name.human()})"


def _make(kind: str, owner: SigningKey, properties: dict[str, Any]) -> Metadata:
    properties = dict(properties)
    properties[PROP_OWNER_KEY] = owner.public.to_bytes()
    preimage = b"gdp.metadata" + encoding.encode([kind, properties])
    return Metadata(kind, properties, owner.sign(preimage))


def make_capsule_metadata(
    owner: SigningKey,
    writer_key: VerifyingKey,
    pointer_strategy: str = "chain",
    writer_mode: str = MODE_SSW,
    extra: Mapping[str, Any] | None = None,
) -> Metadata:
    """Create signed DataCapsule metadata.

    ``writer_mode`` declares Strict (``"ssw"``) or Quasi (``"qsw"``)
    Single Writer semantics (§VI-C): under SSW, two writer-signed
    heartbeats for one seqno are equivocation; under QSW they are an
    expected (rare) branch.  *extra* may carry application-defined
    immutable properties, e.g. a human-readable label, content-type, or
    a creation nonce to give two otherwise-identical capsules distinct
    names.
    """
    if writer_mode not in (MODE_SSW, MODE_QSW):
        raise NameError_(f"unknown writer mode {writer_mode!r}")
    properties: dict[str, Any] = dict(extra or {})
    properties[PROP_WRITER_KEY] = writer_key.to_bytes()
    properties[PROP_POINTER_STRATEGY] = pointer_strategy
    properties[PROP_WRITER_MODE] = writer_mode
    return _make(KIND_CAPSULE, owner, properties)


def make_server_metadata(
    owner: SigningKey,
    server_key: VerifyingKey,
    extra: Mapping[str, Any] | None = None,
) -> Metadata:
    """Create signed DataCapsule-server metadata (§V: a server name is
    "derived in a similar way as the DataCapsule ... includes a public
    key of the DataCapsule-server")."""
    properties: dict[str, Any] = dict(extra or {})
    properties[PROP_SELF_KEY] = server_key.to_bytes()
    return _make(KIND_SERVER, owner, properties)


def make_router_metadata(
    owner: SigningKey,
    router_key: VerifyingKey,
    extra: Mapping[str, Any] | None = None,
) -> Metadata:
    """Create signed GDP-router metadata."""
    properties: dict[str, Any] = dict(extra or {})
    properties[PROP_SELF_KEY] = router_key.to_bytes()
    return _make(KIND_ROUTER, owner, properties)


def make_client_metadata(
    owner: SigningKey,
    client_key: VerifyingKey | None = None,
    extra: Mapping[str, Any] | None = None,
) -> Metadata:
    """Create client (reader/writer endpoint) metadata; clients have flat
    names too so that responses and subscription pushes can be routed
    back to them ("one can communicate directly with services, data, or
    in the general case---principals", §IV-B)."""
    properties: dict[str, Any] = dict(extra or {})
    properties[PROP_SELF_KEY] = (client_key or owner.public).to_bytes()
    return _make(KIND_CLIENT, owner, properties)


def make_organization_metadata(
    owner: SigningKey,
    org_key: VerifyingKey | None = None,
    extra: Mapping[str, Any] | None = None,
) -> Metadata:
    """Create organization metadata; the org key defaults to the owner's
    own key (a one-person organization)."""
    properties: dict[str, Any] = dict(extra or {})
    properties[PROP_SELF_KEY] = (org_key or owner.public).to_bytes()
    return _make(KIND_ORGANIZATION, owner, properties)
