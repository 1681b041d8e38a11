"""Owner-side operations: capsule creation, delegation, placement (§V, §VI).

"The creation of a DataCapsule involves two operations by the
DataCapsule-owner: (a) placing the signed metadata on appropriate
DataCapsule-servers, and (b) creating a cryptographic delegation to
specific servers."

:class:`OwnerConsole` wraps an owner's signing key and performs both,
including redundant delegation to several servers/organizations at once
("the architecture allows a single DataCapsule to be delegated to
multiple service providers at the same time", §IV-B) and scope policies
restricting which routing domains may see the capsule.  Where the
replicas live is one owner-signed, versioned :class:`CapsulePlacement`;
:meth:`OwnerConsole.place_capsule` issues the first and
:meth:`OwnerConsole.migrate_replica` the later ones, and every server
learns of each through the ``host`` op.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.crypto.keys import SigningKey, VerifyingKey
from repro.delegation.certs import AdCert, OrgMembership, Placement
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


class CapsulePlacement(Placement):
    """A signed placement together with what the owner sends with it:
    the capsule metadata and each server's delegation chain."""

    __slots__ = ("metadata", "chains")

    def __init__(
        self,
        metadata: Metadata,
        chains: dict[GdpName, ServiceChain],
        version: int,
        signature: bytes = b"",
    ):
        super().__init__(metadata.name, version, list(chains), signature)
        self.metadata = metadata
        self.chains = dict(chains)


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
        """Move one replica from *from_server* to *to_server* (§VI:
        placement decisions belong to the owner) with two placements.
        The first adds *to_server*: the current holders learn it first,
        so every write they take from then on replicates to it, then
        *to_server*, which copies the history from each holder before it
        answers.  The second drops *from_server*: the survivors first,
        so none still counts on its acks, then *from_server*, which
        retires.  Returns the final :class:`CapsulePlacement`."""
        if from_server.name not in placement.chains:
            raise CapsuleError("from_server does not hold this capsule")
        chains = dict(placement.chains)
        chains[to_server.name] = self.delegate(
            placement.metadata, to_server, scopes=scopes, expires_at=expires_at
        )
        widened = self._sign(placement.metadata, chains, placement.version + 1)
        yield from self._send(widened, chains, [*placement.servers, to_server.name])
        yield 0.5  # let the new replica's re-advertisement land
        del chains[from_server.name]
        narrowed = self._sign(placement.metadata, chains, widened.version + 1)
        yield from self._send(
            narrowed, widened.chains, [*narrowed.servers, from_server.name]
        )
        return narrowed

    def place_capsule(
        self,
        metadata: Metadata,
        server_metadatas: Sequence[Metadata],
        *,
        scopes: Sequence[str] = (),
        expires_at: float | None = None,
    ) -> Generator:
        """Delegate to every server directly and :meth:`place` the
        capsule on them.  Returns the :class:`CapsulePlacement`."""
        chains = {
            server_metadata.name: self.delegate(
                metadata, server_metadata, scopes=scopes, expires_at=expires_at
            )
            for server_metadata in server_metadatas
        }
        return (yield from self.place(metadata, chains))

    def place(
        self, metadata: Metadata, chains: dict[GdpName, ServiceChain]
    ) -> Generator:
        """Send every server of *chains* (server name -> its delegation
        chain, direct or through an organization) the first placement,
        which names them all: they become mutual replication siblings.
        Returns the :class:`CapsulePlacement`."""
        if not chains:
            raise CapsuleError("placement needs at least one server")
        placement = self._sign(metadata, chains, 1)
        yield from self._send(placement, chains, placement.servers)
        return placement

    def _sign(self, metadata: Metadata, chains: dict, version: int) -> CapsulePlacement:
        placement = CapsulePlacement(metadata, chains, version)
        placement.signature = self.owner_key.sign(placement.signing_preimage())
        return placement

    def _send(self, placement: CapsulePlacement, chains: dict, servers) -> Generator:
        """Send *placement* to each of *servers* in order as a ``host``
        op, each with its own delegation chain from *chains*."""
        for server in servers:
            yield from self.client.ask(
                server,
                {
                    "op": "host",
                    "capsule": placement.capsule.raw,
                    "metadata": placement.metadata.to_wire(),
                    "chain": chains[server].to_wire(),
                    "placement": placement.to_wire(),
                },
                timeout=60.0,
            )
