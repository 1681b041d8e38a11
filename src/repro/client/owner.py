"""Owner-side operations: capsule creation, delegation, placement (§V).

"The creation of a DataCapsule involves two operations by the
DataCapsule-owner: (a) placing the signed metadata on appropriate
DataCapsule-servers, and (b) creating a cryptographic delegation to
specific servers."

:class:`OwnerConsole` wraps an owner's signing key and performs both,
including redundant delegation to several servers/organizations at once
("the architecture allows a single DataCapsule to be delegated to
multiple service providers at the same time", §IV-B) and scope policies
restricting which routing domains may see the capsule.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.crypto.keys import SigningKey, VerifyingKey
from repro.delegation.certs import AdCert, OrgMembership
from repro.delegation.chain import ServiceChain
from repro.errors import CapsuleError
from repro.naming.metadata import (
    MODE_SSW,
    Metadata,
    make_capsule_metadata,
)
from repro.naming.names import GdpName
from repro.client.client import GdpClient

__all__ = ["OwnerConsole", "CapsulePlacement"]


class CapsulePlacement:
    """The result of a placement: metadata + per-server chains."""

    __slots__ = ("metadata", "chains", "servers")

    def __init__(
        self,
        metadata: Metadata,
        chains: dict[GdpName, ServiceChain],
    ):
        self.metadata = metadata
        self.chains = dict(chains)
        self.servers = sorted(chains, key=lambda n: n.raw)

    @property
    def name(self) -> GdpName:
        """The flat GDP name of this object."""
        return self.metadata.name


class OwnerConsole:
    """An owner identity operating through a :class:`GdpClient`."""

    def __init__(self, client: GdpClient, owner_key: SigningKey):
        self.client = client
        self.owner_key = owner_key

    def design_capsule(
        self,
        writer_key: VerifyingKey,
        *,
        pointer_strategy: str = "chain",
        writer_mode: str = MODE_SSW,
        label: str | None = None,
        extra: dict | None = None,
    ) -> Metadata:
        """Create (sign) capsule metadata; purely local."""
        props = dict(extra or {})
        if label is not None:
            props["label"] = label
        return make_capsule_metadata(
            self.owner_key,
            writer_key,
            pointer_strategy=pointer_strategy,
            writer_mode=writer_mode,
            extra=props,
        )

    def delegate(
        self,
        metadata: Metadata,
        server_metadata: Metadata,
        *,
        scopes: Sequence[str] = (),
        expires_at: float | None = None,
        org_metadata: Metadata | None = None,
        membership: OrgMembership | None = None,
    ) -> ServiceChain:
        """Issue an AdCert and assemble the service chain for one
        server, directly or through a storage organization."""
        delegate_name = (
            org_metadata.name if org_metadata is not None
            else server_metadata.name
        )
        adcert = AdCert.issue(
            self.owner_key,
            metadata.name,
            delegate_name,
            scopes=scopes,
            expires_at=expires_at,
        )
        chain = ServiceChain(
            metadata, adcert, server_metadata, org_metadata, membership
        )
        chain.verify(now=self.client.ctx.now)
        return chain

    def migrate_replica(
        self,
        placement: CapsulePlacement,
        from_server: Metadata,
        to_server: Metadata,
        *,
        scopes: Sequence[str] = (),
        expires_at: float | None = None,
    ) -> Generator:
        """Move one replica: host on *to_server*, warm it from an
        existing replica, then retire *from_server* (§VI: placement
        decisions belong to the owner).  Returns the updated
        :class:`CapsulePlacement`."""
        from repro import encoding as _encoding

        metadata = placement.metadata
        if from_server.name not in placement.chains:
            raise CapsuleError("from_server does not hold this capsule")
        # 1. Delegate + host the new replica, siblings = survivors.
        new_chain = self.delegate(
            metadata, to_server, scopes=scopes, expires_at=expires_at
        )
        survivors = [
            name for name in placement.servers if name != from_server.name
        ]
        yield from self.client.ask(
            to_server.name,
            {
                "op": "host",
                "capsule": metadata.name.raw,
                "metadata": metadata.to_wire(),
                "chain": new_chain.to_wire(),
                "siblings": [n.raw for n in survivors],
            },
        )
        # 2. Warm the new replica from the retiring one.
        yield from self.client.ask(
            to_server.name,
            {
                "op": "sync_now",
                "capsule": metadata.name.raw,
                "from": from_server.name.raw,
            },
            timeout=60.0,
        )
        yield 0.5  # let the new replica's re-advertisement land
        # 3. Retire the old replica (owner-signed authorization).
        preimage = b"gdp.unhost" + _encoding.encode(
            [metadata.name.raw, from_server.name.raw]
        )
        yield from self.client.ask(
            from_server.name,
            {
                "op": "unhost",
                "capsule": metadata.name.raw,
                "auth": self.owner_key.sign(preimage),
            },
        )
        chains = {
            name: chain
            for name, chain in placement.chains.items()
            if name != from_server.name
        }
        chains[to_server.name] = new_chain
        return CapsulePlacement(metadata, chains)

    def place_capsule(
        self,
        metadata: Metadata,
        server_metadatas: Sequence[Metadata],
        *,
        scopes: Sequence[str] = (),
        expires_at: float | None = None,
    ) -> Generator:
        """Delegate to every server and send each the ``host`` op; the
        servers become mutual replication siblings.  Returns a
        :class:`CapsulePlacement`."""
        if not server_metadatas:
            raise CapsuleError("placement needs at least one server")
        chains: dict[GdpName, ServiceChain] = {}
        for server_metadata in server_metadatas:
            chains[server_metadata.name] = self.delegate(
                metadata,
                server_metadata,
                scopes=scopes,
                expires_at=expires_at,
            )
        all_names = sorted(chains, key=lambda n: n.raw)
        for server_name in all_names:
            siblings = [n.raw for n in all_names if n != server_name]
            yield from self.client.ask(
                server_name,
                {
                    "op": "host",
                    "capsule": metadata.name.raw,
                    "metadata": metadata.to_wire(),
                    "chain": chains[server_name].to_wire(),
                    "siblings": siblings,
                },
            )
        return CapsulePlacement(metadata, chains)
