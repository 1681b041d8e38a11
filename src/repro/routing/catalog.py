"""Naming catalogs as DataCapsules (§VII "Secure advertisements").

"The set of available names is advertised via one or more naming
catalogs in the form of DataCapsules containing individual
advertisements and access-control credentials ... All such proof is
included in a catalog, signed by the advertiser.  Advertisements have
corresponding expiration times, which can be deferred as a group by
appending extension records to the catalog.  [This] allows names and
access control certificates to be easily synchronized with routing
elements within the network (such as the GLookupService)."

The catalog here *is* an ordinary DataCapsule whose writer is the
advertiser (a DataCapsule-server).  Record payloads:

``advert``     one advertised name + its delegation evidence
``withdraw``   remove a previously advertised name
``extend``     defer the expiry of *every* live advertisement at once

Because the catalog is a capsule, it inherits everything capsules have:
the advertiser's signature on every update, tamper-evidence, incremental
sync (a GLookupService that has replayed up to seqno *n* fetches only
the tail), and verifiable replay for late-joining routing elements.
This is exactly the "particularly optimized for transient failure and
re-establishment" property: after a server restart, re-advertising is
appending one ``extend`` record.
"""

from __future__ import annotations

from typing import Callable

from repro import encoding
from repro.capsule.capsule import DataCapsule
from repro.capsule.writer import CapsuleWriter
from repro.crypto.keys import SigningKey
from repro.delegation.certs import RtCert
from repro.delegation.chain import ServiceChain
from repro.errors import AdvertisementError, GdpError
from repro.naming.metadata import Metadata, make_capsule_metadata
from repro.naming.names import GdpName
from repro.routing.glookup import (
    GLookupService, RouteEntry, expiry_from_wire, wire_expiry,
)

__all__ = ["CatalogEntry", "CatalogBuilder", "replay_catalog", "import_catalog"]


class CatalogEntry:
    """One live advertisement derived from catalog replay."""

    __slots__ = ("name", "chain", "rtcert", "expires_at", "seqno")

    def __init__(
        self,
        name: GdpName,
        chain: ServiceChain | None,
        rtcert: RtCert | None,
        expires_at: float | None,
        seqno: int,
    ):
        self.name = name
        self.chain = chain
        self.rtcert = rtcert
        self.expires_at = expires_at
        self.seqno = seqno

    def is_expired(self, now: float) -> bool:
        """Whether the entry has passed its expiry at *now*."""
        return self.expires_at is not None and now > self.expires_at

    def __repr__(self) -> str:
        return (
            f"CatalogEntry({self.name.human()}, expires={self.expires_at})"
        )


class CatalogBuilder:
    """The advertiser's side: a capsule-backed naming catalog.

    The catalog capsule's designated writer is the advertiser's own key,
    so every record carries the §VII "signed by the advertiser" property
    via the ordinary heartbeat machinery.
    """

    def __init__(
        self,
        advertiser_metadata: Metadata,
        advertiser_key: SigningKey,
        *,
        clock: Callable[[], float] | None = None,
    ):
        self.advertiser_metadata = advertiser_metadata
        self._key = advertiser_key
        self._clock = clock or (lambda: 0.0)
        catalog_metadata = make_capsule_metadata(
            advertiser_key,
            advertiser_key.public,
            pointer_strategy="chain",
            extra={
                "caapi": "naming-catalog",
                "advertiser": advertiser_metadata.name.raw,
            },
        )
        self.capsule = DataCapsule(catalog_metadata)
        self._writer = CapsuleWriter(
            self.capsule, advertiser_key,
            clock=lambda: int(self._clock() * 1000),
        )

    @property
    def name(self) -> GdpName:
        """The flat GDP name of this object."""
        return self.capsule.name

    def advertise_self(
        self, rtcert: RtCert, *, expires_at: float | None = None
    ) -> int:
        """Advertise the advertiser's own name."""
        return self._append(
            {
                "type": "advert",
                "name": self.advertiser_metadata.name.raw,
                "rtcert": rtcert.to_wire(),
                "expires_at": wire_expiry(expires_at),
            }
        )

    def advertise_capsule(
        self,
        chain: ServiceChain,
        rtcert: RtCert | None = None,
        *,
        expires_at: float | None = None,
    ) -> int:
        """Advertise a hosted capsule with its delegation chain."""
        entry: dict = {
            "type": "advert",
            "name": chain.capsule.raw,
            "chain": chain.to_wire(),
            "expires_at": wire_expiry(expires_at),
        }
        if rtcert is not None:
            entry["rtcert"] = rtcert.to_wire()
        return self._append(entry)

    def withdraw(self, name: GdpName) -> int:
        """Withdraw an advertisement (e.g. the capsule moved away)."""
        return self._append({"type": "withdraw", "name": name.raw})

    def extend_all(self, new_expires_at: float) -> int:
        """Defer the expiry of every live advertisement as a group —
        the paper's cheap keep-alive."""
        return self._append(
            {"type": "extend", "expires_at": wire_expiry(new_expires_at)}
        )

    def _append(self, entry: dict) -> int:
        record, _ = self._writer.append(encoding.encode(entry))
        return record.seqno


def replay_catalog(
    capsule: DataCapsule,
    *,
    verify: bool = True,
    from_seqno: int = 1,
    into: dict[GdpName, CatalogEntry] | None = None,
) -> dict[GdpName, CatalogEntry]:
    """Replay a catalog capsule into the live-advertisement view.

    ``from_seqno``/``into`` support incremental sync: a GLookupService
    that has already replayed up to seqno *k* passes ``from_seqno=k+1``
    and its previous view.  With ``verify`` the full hash-pointer history
    is checked first (the routing element does not trust its copy's
    transport).
    """
    if verify:
        capsule.verify_history()
    view: dict[GdpName, CatalogEntry] = dict(into or {})
    last = capsule.last_seqno
    for seqno in range(from_seqno, last + 1):
        record = capsule.get(seqno)
        try:
            entry = encoding.decode(record.payload)
        except GdpError as exc:
            raise AdvertisementError(
                f"catalog record {seqno} is not decodable: {exc}"
            ) from exc
        kind = entry.get("type")
        if kind == "advert":
            name = GdpName(entry["name"])
            chain = (
                ServiceChain.from_wire(entry["chain"])
                if "chain" in entry
                else None
            )
            rtcert = (
                RtCert.from_wire(entry["rtcert"])
                if "rtcert" in entry
                else None
            )
            view[name] = CatalogEntry(
                name, chain, rtcert, expiry_from_wire(entry["expires_at"]), seqno
            )
        elif kind == "withdraw":
            view.pop(GdpName(entry["name"]), None)
        elif kind == "extend":
            new_expiry = expiry_from_wire(entry["expires_at"])
            for live in view.values():
                live.expires_at = new_expiry
        else:
            raise AdvertisementError(
                f"catalog record {seqno} has unknown type {kind!r}"
            )
    return view


def import_catalog(
    capsule: DataCapsule,
    glookup: GLookupService,
    router_name: GdpName,
    router_metadata: Metadata,
    *,
    now: float = 0.0,
) -> int:
    """Synchronize a GLookupService from a catalog capsule (§VII:
    advertisements "easily synchronized with routing elements").

    Every derived route entry is re-verified through the normal
    registration path; returns the number of names imported.
    """
    advertiser_raw = capsule.metadata.properties.get("advertiser")
    if not isinstance(advertiser_raw, bytes):
        raise AdvertisementError("capsule is not a naming catalog")
    view = replay_catalog(capsule)
    imported = 0
    for name, entry in view.items():
        if entry.is_expired(now):
            continue
        if entry.chain is not None:
            principal_metadata = entry.chain.server_metadata
        else:
            # Self-advertisement: need the advertiser's metadata, which
            # the catalog carries implicitly only by name; the RtCert's
            # principal binding plus the advertiser property pin it.
            continue  # self-entries are imported at attachment time
        route = RouteEntry(
            name,
            router=router_name,
            principal=principal_metadata.name,
            principal_metadata=principal_metadata,
            rtcert=entry.rtcert,
            chain=entry.chain,
            router_metadata=router_metadata,
            expires_at=entry.expires_at,
        )
        glookup.register(route)
        imported += 1
    return imported
