"""GLookupService: independently verifiable routing state (§VII).

"Within a routing domain, all routing information is kept in a shared
database that we call a GLookupService ... The GLookupService is
essentially a key-value store and is not required to be trusted."

Entries map a flat name to the router it is reachable through (within
this domain) or to the child domain it was learned from.  Every entry
carries the delegation evidence (service chain + RtCert + principal
metadata); the GLookupService verifies on registration, and — because it
is *not trusted* — routers re-verify before installing FIB state.

Hierarchy: a miss in the local service is retried at the parent, up to
the global GLookupService (§VII: "this top-level GLookupService
corresponds roughly to a tier-1 service provider").  Propagation upward
enforces the owner's AdCert scope policy: an entry whose scope excludes
the parent domain is kept local (§VII: "this is where any policies for
the scope of a DataCapsule are adhered to").

Storage is a backing behind the policy; the in-process one is packed
for million-name namespaces: names live in a sorted
:class:`~repro.routing.fib.PackedMap` (32-byte key + 12-byte sidecar
per name), delegation evidence is interned in a refcounted pool — one
record per distinct (where, principal, chain, certs) combination — and
a name's earliest lease files its 8-byte prefix once on an
:class:`~repro.routing.fib.ExpiryWheel`, so purging dead names costs
O(expired), never O(table).  :class:`RouteEntry` objects are
reconstructed at the lookup edge, so every consumer still sees the
verified-entry API.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable

from repro import encoding
from repro.delegation.certs import RtCert
from repro.delegation.chain import ServiceChain, verify_routing_chain
from repro.errors import AdvertisementError, ScopeViolationError
from repro.naming.metadata import Metadata
from repro.naming.names import GdpName
from repro.routing.fib import PREFIX_BYTES, ExpiryWheel, PackedMap
from repro.routing.wirecache import decode_blob, encode_blob
from repro.runtime.metrics import MetricsRegistry

__all__ = ["RouteEntry", "GLookupService", "wire_expiry", "expiry_from_wire"]


def wire_expiry(expires_at: float | None) -> bytes | None:
    """Wire form of a lease expiry: ``None`` for "no expiry", else the
    exact IEEE-754 bits.

    The old format stored ``int(expires_at * 1000)`` with ``-1`` as the
    no-expiry sentinel — a lossy round-trip that changed the expiry by
    up to a millisecond (breaking byte-identical simtest replays through
    the DHT tier) and a sentinel that collides with legitimate sub-zero
    timestamps.  ``None`` is unambiguous and the packed float is exact.
    """
    return None if expires_at is None else encoding.pack_float(expires_at)


def expiry_from_wire(raw) -> float | None:
    """Inverse of :func:`wire_expiry`."""
    if raw is None:
        return None
    if isinstance(raw, bytes):
        return encoding.unpack_float(raw)
    raise AdvertisementError(
        f"malformed expiry wire form: {type(raw).__name__}"
    )


def _evidence_from_wire(kind: str, value, decoder):
    """An evidence sub-field travels as one interned blob; any other
    shape is malformed."""
    if not isinstance(value, (bytes, bytearray)):
        raise AdvertisementError(
            f"malformed {kind} sub-wire: {type(value).__name__}"
        )
    return decode_blob(kind, value, decoder)


class RouteEntry:
    """One verified (name -> where) binding plus its evidence.

    Exactly one of ``router`` / ``via_child`` describes reachability:
    ``router`` for names attached inside this domain, ``via_child`` for
    names learned from a child domain's propagation.
    """

    __slots__ = (
        "name",
        "router",
        "via_child",
        "principal",
        "principal_metadata",
        "rtcert",
        "chain",
        "router_metadata",
        "expires_at",
    )

    def __init__(
        self,
        name: GdpName,
        *,
        router: GdpName | None = None,
        via_child: str | None = None,
        principal: GdpName,
        principal_metadata: Metadata,
        rtcert: RtCert | None,
        chain: ServiceChain | None,
        router_metadata: Metadata | None,
        expires_at: float | None = None,
    ):
        if (router is None) == (via_child is None):
            raise AdvertisementError(
                "route entry must have exactly one of router / via_child"
            )
        self.name = name
        self.router = router
        self.via_child = via_child
        self.principal = principal
        self.principal_metadata = principal_metadata
        self.rtcert = rtcert
        self.chain = chain
        self.router_metadata = router_metadata
        self.expires_at = expires_at

    def is_expired(self, now: float) -> bool:
        """Whether the entry has passed its expiry at *now*."""
        return self.expires_at is not None and now > self.expires_at

    def allows_domain(self, domain: str) -> bool:
        """Scope check for propagation (capsule entries only; endpoint
        self-names are never scope-restricted)."""
        if self.chain is None:
            return True
        return self.chain.allows_domain(domain)

    def verify(self, *, now: float = 0.0) -> None:
        """Re-verify all delegation evidence (what an untrusting router
        runs before installing this entry into its FIB)."""
        self.principal_metadata.verify()
        if self.chain is not None:
            if self.rtcert is not None and self.router_metadata is not None:
                verify_routing_chain(
                    self.chain, self.rtcert, self.router_metadata, now=now
                )
            else:
                self.chain.verify(now=now)
            if self.chain.capsule != self.name:
                raise AdvertisementError(
                    "service chain does not cover the advertised name"
                )
        else:
            # Endpoint self-name: the name must hash from the presented
            # metadata, and the RtCert (if routed) must be issued by it.
            if self.principal_metadata.name != self.name:
                raise AdvertisementError(
                    "advertised self-name does not match metadata"
                )
            if self.rtcert is not None:
                if self.rtcert.principal != self.name:
                    raise AdvertisementError("RtCert principal mismatch")
                self.rtcert.verify(self.principal_metadata.self_key, now=now)

    def to_wire(self) -> dict:
        """Wire form for storage in distributed backends (the DHT tier).

        Evidence sub-fields are canonical encoded *blobs* interned per
        live object (:mod:`repro.routing.wirecache`): a server's 10k
        entries share one encoding of its metadata/RtCert instead of
        re-serializing them per entry, and — bytes being immutable —
        the shared blob cannot be corrupted through one entry's wire.
        """
        wire: dict = {
            "name": self.name.raw,
            "principal": self.principal.raw,
            "principal_metadata": encode_blob(
                "metadata", self.principal_metadata
            ),
            "expires_at": wire_expiry(self.expires_at),
        }
        if self.router is not None:
            wire["router"] = self.router.raw
        if self.via_child is not None:
            wire["via_child"] = self.via_child
        if self.rtcert is not None:
            wire["rtcert"] = encode_blob("rtcert", self.rtcert)
        if self.chain is not None:
            wire["chain"] = encode_blob("chain", self.chain)
        if self.router_metadata is not None:
            wire["router_metadata"] = encode_blob(
                "metadata", self.router_metadata
            )
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "RouteEntry":
        """Rebuild from a wire form; raises on malformed input.

        Evidence sub-fields are interned blobs (bytes); repeated blobs
        decode to *shared* evidence objects.
        """
        try:
            return cls(
                GdpName(wire["name"]),
                router=GdpName(wire["router"]) if "router" in wire else None,
                via_child=wire.get("via_child"),
                principal=GdpName(wire["principal"]),
                principal_metadata=_evidence_from_wire(
                    "metadata", wire["principal_metadata"], Metadata.from_wire
                ),
                rtcert=_evidence_from_wire(
                    "rtcert", wire["rtcert"], RtCert.from_wire
                )
                if "rtcert" in wire
                else None,
                chain=_evidence_from_wire(
                    "chain", wire["chain"], ServiceChain.from_wire
                )
                if "chain" in wire
                else None,
                router_metadata=_evidence_from_wire(
                    "metadata", wire["router_metadata"], Metadata.from_wire
                )
                if "router_metadata" in wire
                else None,
                expires_at=expiry_from_wire(wire.get("expires_at")),
            )
        except (KeyError, TypeError) as exc:
            raise AdvertisementError(
                f"malformed route entry wire form: {exc}"
            ) from exc

    def child_copy(self, child_domain: str) -> "RouteEntry":
        """The derived entry a parent stores when this one propagates up."""
        return RouteEntry(
            self.name,
            via_child=child_domain,
            principal=self.principal,
            principal_metadata=self.principal_metadata,
            rtcert=self.rtcert,
            chain=self.chain,
            router_metadata=self.router_metadata,
            expires_at=self.expires_at,
        )

    def __eq__(self, other: object) -> bool:
        """Content equality over the full wire form (the packed store
        reconstructs entries at the lookup edge, so identity equality
        would make ``lookup(name) == [entry]`` meaningless)."""
        if other is self:
            return True
        if not isinstance(other, RouteEntry):
            return NotImplemented
        return self.to_wire() == other.to_wire()

    def __hash__(self) -> int:
        return hash(
            (self.name, self.principal, self.router, self.via_child)
        )

    def __repr__(self) -> str:
        where = (
            f"router={self.router.human()}"
            if self.router is not None
            else f"via_child={self.via_child}"
        )
        return f"RouteEntry({self.name.human()}, {where})"


# -- packed evidence storage ----------------------------------------------

#: packed per-name sidecar: (evidence id u32, expiry f64)
_VALUE = struct.Struct("<Id")
#: evidence-id sentinel marking a multi-principal name (see ``_spill``)
_SPILL = 0xFFFFFFFF
#: expiry encoding of "no expiry" (entries without a lease never wheel)
_NO_EXPIRY = float("inf")


def _soonest(pairs: list) -> float | None:
    """The earliest lease among *pairs* (None when none has one)."""
    leases = [expiry for _, expiry in pairs if expiry != _NO_EXPIRY]
    return min(leases) if leases else None


def _evidence_key(payload: tuple) -> tuple:
    """Content identity of an evidence payload, built from component
    signatures (deterministic ECDSA: same content <=> same signature).
    Re-registering identical evidence — a parent storing each sibling's
    propagated copy, a refresh re-presenting the same certs — interns to
    the existing pool record instead of allocating another."""
    router_raw, via_child, principal_raw, pm, rt, chain, rm = payload
    return (
        router_raw,
        via_child,
        principal_raw,
        pm.signature,
        rt.signature if rt is not None else None,
        (
            chain.capsule_metadata.signature,
            chain.adcert.signature,
            chain.server_metadata.signature,
            chain.org_metadata.signature
            if chain.org_metadata is not None
            else None,
            chain.membership.signature
            if chain.membership is not None
            else None,
        )
        if chain is not None
        else None,
        rm.signature if rm is not None else None,
    )


class _EvidencePool:
    """Refcounted interning pool for delegation evidence payloads.

    A payload is the 7-tuple ``(router_raw, via_child, principal_raw,
    principal_metadata, rtcert, chain, router_metadata)``; the pool
    hands out small integer ids for the packed sidecar and stores each
    distinct payload once.
    """

    __slots__ = ("_records", "_free", "_by_key")

    def __init__(self):
        self._records: list[list | None] = []
        self._free: list[int] = []
        self._by_key: dict[tuple, int] = {}

    def acquire(self, payload: tuple) -> int:
        """Intern *payload*; returns its id (refcount incremented)."""
        key = _evidence_key(payload)
        idx = self._by_key.get(key)
        if idx is not None:
            self._records[idx][0] += 1  # type: ignore[index]
            return idx
        if self._free:
            idx = self._free.pop()
            self._records[idx] = [1, key, payload]
        else:
            idx = len(self._records)
            self._records.append([1, key, payload])
        self._by_key[key] = idx
        return idx

    def release(self, idx: int) -> None:
        """Drop one reference; the record is freed at zero."""
        record = self._records[idx]
        record[0] -= 1  # type: ignore[index]
        if record[0] <= 0:  # type: ignore[index]
            del self._by_key[record[1]]  # type: ignore[index]
            self._records[idx] = None
            self._free.append(idx)

    def payload(self, idx: int) -> tuple:
        """The payload tuple behind *idx*."""
        return self._records[idx][2]  # type: ignore[index]

    def principal(self, idx: int) -> bytes:
        """The principal raw name behind *idx* (replacement checks)."""
        return self._records[idx][2][2]  # type: ignore[index]

    def __len__(self) -> int:
        return len(self._by_key)


def _rebuild_entry(name: GdpName, payload: tuple, expiry: float) -> RouteEntry:
    """Reconstruct the RouteEntry API object from pooled evidence."""
    router_raw, via_child, principal_raw, pm, rtcert, chain, rm = payload
    return RouteEntry(
        name,
        router=GdpName(router_raw) if router_raw is not None else None,
        via_child=via_child,
        principal=GdpName(principal_raw),
        principal_metadata=pm,
        rtcert=rtcert,
        chain=chain,
        router_metadata=rm,
        expires_at=None if expiry == _NO_EXPIRY else expiry,
    )


class _PackedTable:
    """The in-process backing: names in a sorted
    :class:`~repro.routing.fib.PackedMap` (name -> evidence id, expiry;
    multi-principal names — anycast replica sets — spill to a side
    dict), evidence interned in an :class:`_EvidencePool`, leases on an
    :class:`~repro.routing.fib.ExpiryWheel` by prefix.  Every answer is inline.
    """

    __slots__ = ("_clock", "_map", "_spill", "_pool", "_wheel", "_c_purged")

    def __init__(self, clock, metrics):
        self._clock = clock
        self._map = PackedMap(_VALUE.size)
        self._spill: dict[bytes, list[tuple[int, float]]] = {}
        self._pool = _EvidencePool()
        self._wheel = ExpiryWheel(token_bytes=PREFIX_BYTES)
        self._c_purged = metrics.counter("glookup.purged")

    def _load(self, raw: bytes) -> tuple[list[tuple[int, float]], int]:
        """All stored (evidence id, expiry) pairs for a raw name, and
        the name's map slot for a follow-up :meth:`_write`."""
        packed, slot = self._map._find(raw)
        if packed is None:
            return [], slot
        ev, expiry = _VALUE.unpack(packed)
        if ev == _SPILL:
            return list(self._spill.get(raw, [])), slot
        return [(ev, expiry)], slot

    def _pairs(self, raw: bytes, packed: bytes) -> list[tuple[int, float]]:
        """:meth:`_load`'s pairs for a packed value :meth:`PackedMap.named` found."""
        ev, expiry = _VALUE.unpack(packed)
        return list(self._spill.get(raw, [])) if ev == _SPILL else [(ev, expiry)]

    def _write(self, raw: bytes, pairs: list, slot: int) -> None:
        """Store the pair list for a raw name at the slot :meth:`_load`
        returned (collapsing the spill)."""
        if not pairs:
            self._map._delete_at(raw, slot)
            self._spill.pop(raw, None)
        elif len(pairs) == 1:
            self._spill.pop(raw, None)
            self._map._set_at(raw, _VALUE.pack(*pairs[0]), slot)
        else:
            self._spill[raw] = pairs
            self._map._set_at(raw, _VALUE.pack(_SPILL, _NO_EXPIRY), slot)

    def _cull(self, raw: bytes, pairs: list, slot: int, now: float) -> list:
        """Drop the expired ones of a raw name's loaded *pairs*; returns
        the live ones."""
        live = []
        for ev, expiry in pairs:
            if expiry != _NO_EXPIRY and now > expiry:
                self._pool.release(ev)
            else:
                live.append((ev, expiry))
        if len(live) != len(pairs):
            self._write(raw, live, slot)
        return live

    def store(self, entry: RouteEntry) -> None:
        """File *entry* under its own name, replacing the principal's
        previous binding; registration activity also drives the lease
        wheel (an O(1) head check, a purge only when a bucket is due)."""
        self.plant(entry.name, entry)
        now = self._clock()
        deadline = self._wheel.next_deadline()
        if deadline is not None and deadline <= now:
            self.purge_expired(now)

    def plant(self, name: GdpName, entry: RouteEntry) -> None:
        """File *entry*'s evidence under *name*, whatever it covers."""
        raw = name.raw
        payload = (
            entry.router.raw if entry.router is not None else None,
            entry.via_child,
            entry.principal.raw,
            entry.principal_metadata,
            entry.rtcert,
            entry.chain,
            entry.router_metadata,
        )
        ev = self._pool.acquire(payload)
        expiry = _NO_EXPIRY if entry.expires_at is None else entry.expires_at
        pairs, slot = self._load(raw)
        filed = _soonest(pairs)
        kept = self._without(pairs, entry.principal.raw)
        self._write(raw, kept + [(ev, expiry)], slot)
        if expiry != _NO_EXPIRY:
            self._wheel.schedule(raw[:PREFIX_BYTES], expiry, filed)

    def _without(self, pairs: list, principal_raw: bytes) -> list:
        """*pairs* minus *principal_raw*'s binding, whose evidence
        reference is released."""
        kept = []
        for ev, expiry in pairs:
            if self._pool.principal(ev) == principal_raw:
                self._pool.release(ev)
            else:
                kept.append((ev, expiry))
        return kept

    def drop(self, name: GdpName, principal: GdpName) -> None:
        """Remove the binding for (name, principal)."""
        pairs, slot = self._load(name.raw)
        kept = self._without(pairs, principal.raw)
        if len(kept) != len(pairs):
            self._write(name.raw, kept, slot)

    def fetch(self, name: GdpName) -> list[RouteEntry]:
        """Live entries for *name*; expired ones are culled."""
        pool = self._pool
        return [
            _rebuild_entry(name, pool.payload(ev), expiry)
            for ev, expiry in self._cull(
                name.raw, *self._load(name.raw), self._clock()
            )
        ]

    def peek(self, name: GdpName) -> list[RouteEntry]:
        """Everything stored under *name*, expired entries included."""
        pool = self._pool
        return [
            _rebuild_entry(name, pool.payload(ev), expiry)
            for ev, expiry in self._load(name.raw)[0]
        ]

    def purge_expired(self, now: float) -> int:
        """Reclaim every expired binding the wheel has due; cost is
        proportional to the tokens processed, never the table size."""
        reclaimed = 0
        for token in self._wheel.expired(now):
            live = []  # every binding still live under this prefix
            for raw, packed, slot in self._map.named(token):
                pairs = self._pairs(raw, packed)
                live += self._cull(raw, pairs, slot, now)
                reclaimed += len(pairs)
            reclaimed -= len(live)
            soonest = _soonest(live)
            if soonest is not None:  # refreshed since filing
                self._wheel.schedule(token, soonest)
        self._c_purged.inc(reclaimed)
        return reclaimed

    def names(self) -> Iterable[GdpName]:
        return (GdpName(raw) for raw in self._map.keys())

    def memory_bytes(self) -> int:
        """Approximate resident bytes of the packed name table + wheel
        (evidence objects excluded — they are shared, not per-name)."""
        return self._map.memory_bytes() + self._wheel.memory_bytes()

    def __len__(self) -> int:
        return len(self._map)


class GLookupService:
    """The per-domain verified route registry.

    ``domain_name`` is the dotted domain label this service belongs to
    (used for scope checks); ``parent`` links the hierarchy.  The
    optional ``verify_on_register`` flag exists so adversarial tests can
    model a *compromised* GLookupService that skips verification — and
    demonstrate that routers catch the forgery anyway.

    This class is the policy — what registering, withdrawing and
    looking up *mean* — stated once over a storage backing ("essentially
    a key-value store", §VII): :class:`_PackedTable` here, a Kademlia
    overlay in :mod:`repro.routing.dht_glookup`.
    """

    def __init__(
        self,
        domain_name: str,
        parent: "GLookupService | None" = None,
        *,
        verify_on_register: bool = True,
        clock: Callable[[], float] | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.domain_name = domain_name
        self.parent = parent
        self.verify_on_register = verify_on_register
        self._clock = clock or (lambda: 0.0)
        # Counters live in the supplied registry (scope
        # ``glookup:<domain>``) or a private one.
        registry = metrics if metrics is not None else MetricsRegistry()
        self.metrics = registry.node(f"glookup:{domain_name}")
        self._c_queries = self.metrics.counter("glookup.queries")
        self._c_misses = self.metrics.counter("glookup.misses")
        self._table = self._open_table()

    def _open_table(self):
        """The storage backing (a subclass is another backing and
        nothing else)."""
        return _PackedTable(self._clock, self.metrics)

    @property
    def now(self) -> float:
        """Current (simulated) time."""
        return self._clock()

    def register(self, entry: RouteEntry, *, propagate: bool = True) -> None:
        """Verify (unless compromised) and store an entry; propagate to
        the parent when the scope policy allows."""
        if self.verify_on_register:
            entry.verify(now=self.now)
            if not entry.allows_domain(self.domain_name):
                raise ScopeViolationError(
                    f"capsule {entry.name.human()} is not allowed in "
                    f"domain {self.domain_name!r}"
                )
        self._table.store(entry)
        if propagate and self.parent is not None:
            if entry.allows_domain(self.parent.domain_name):
                self.parent.register(entry.child_copy(self.domain_name))
            # else: scope boundary — the name stays invisible above here.

    def plant(self, name: GdpName, entry: RouteEntry) -> None:
        """Adversary/test hook: file *entry*'s evidence under *name*
        with no verification, no scope check, and no propagation —
        modeling corrupted backing state in the untrusted store (the
        oracles and routers must catch what comes back out)."""
        self._table.plant(name, entry)

    def unregister(self, name: GdpName, principal: GdpName) -> None:
        """Remove the binding for (name, principal), recursively up."""
        self._table.drop(name, principal)
        if self.parent is not None:
            self.parent.unregister(name, principal)

    def lookup(self, name: GdpName):
        """Live entries for *name* in this domain only (expired ones
        culled).  A backing that must go to the network cannot answer
        inline: the answer is then the resolution *process* — a
        generator returning the entries — for the caller to spawn, or to
        drop unstarted."""
        self._c_queries.inc()
        answer = self._table.fetch(name)
        if not answer:
            self._c_misses.inc()
        elif not isinstance(answer, list):
            return self._count_pending(answer)
        return answer

    def _count_pending(self, resolution):
        entries = yield from resolution
        if not entries:
            self._c_misses.inc()
        return entries

    def peek(self, name: GdpName) -> list[RouteEntry]:
        """Diagnostic view of everything stored under *name* — no
        counters, no culling, expired entries included (the simtest
        oracles judge staleness themselves)."""
        return self._table.peek(name)

    def purge_expired(self, now: float | None = None) -> int:
        """Reclaim every expired binding the backing has due; returns
        how many."""
        return self._table.purge_expired(self.now if now is None else now)

    def names(self) -> Iterable[GdpName]:
        """All names with stored entries."""
        return self._table.names()

    def memory_bytes(self) -> int:
        """Approximate resident bytes of the backing's name table."""
        return self._table.memory_bytes()

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(domain={self.domain_name!r}, "
            f"names={len(self)})"
        )
