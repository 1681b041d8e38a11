"""A DHT-backed global GLookupService tier (§VII).

"Note that the GLookupService is essentially a key-value store and is
not required to be trusted; existing technologies such as distributed
hash tables (DHTs) can be used to implement a highly distributed and
scalable GLookupService."

:class:`DhtGLookupService` is a GLookupService — the same register /
unregister / lookup policy, stated once in
:mod:`repro.routing.glookup` — whose storage backing is a message-level
Kademlia DHT.  An entry travels as its wire form inside a record that is
only that value and an expiry, filed under the value's digest: there is
no version, principal or tombstone for an overlay node to forge, so a
forged record sits beside a genuine binding and never replaces or
erases it.  Removal is by expiry only.  Records are TTL'd (capped by the
entry's lease); :class:`DhtRepublishDaemon` re-puts the current
bindings before the TTL lapses, which doubles as re-replication after
holder churn (each republish lands on the *currently* closest live
nodes), and a withdrawn or replaced binding is simply not re-put.  The
service's own lookups skip a value it replaced or withdrew at once.

Because every entry carries its delegation evidence, the DHT nodes stay
untrusted: a node returning a forged entry fails the resolving router's
re-verification exactly like a compromised centralized service.
"""

from __future__ import annotations

from typing import Callable

from repro.naming.names import GdpName
from repro.routing.dht import (
    RECORD_TTL,
    DhtNode,
    KademliaDht,
    make_record,
    record_expiry,
    value_principal,
)
from repro.routing.glookup import GLookupService, RouteEntry
from repro.runtime.context import Periodic

__all__ = ["DhtGLookupService", "DhtRepublishDaemon"]


def _decode(wires: list, refused=None) -> list[RouteEntry]:
    """The decodable entries among *wires*; each undecodable one (garbage
    from an untrusted DHT node) counts in *refused* when given."""
    entries = []
    for wire in wires:
        try:
            entries.append(RouteEntry.from_wire(wire))
        except Exception:
            if refused is not None:
                refused.inc()
    return entries


class _DhtTable:
    """The DHT backing of a GLookupService: publish, fetch and republish
    through *home*, the service's own DHT node.

    Resolution RPCs take network time, so :meth:`fetch` answers with
    the lookup *process* for the caller to run, and every publish runs
    as a background process.  The diagnostic and maintenance surfaces
    (:meth:`plant`, :meth:`peek`, :meth:`purge_expired`) act on the home
    node's own replica and send nothing.
    """

    def __init__(self, dht: KademliaDht, home: GdpName, clock, metrics):
        self.dht = dht
        self.home = home
        self._clock = clock
        # Current bindings: name -> principal raw -> record (what the
        # republish daemon re-puts).
        self._published: dict[GdpName, dict[bytes, dict]] = {}
        # Digest of each value this service replaced or withdrew -> that
        # record's expiry: copies still live on holders until then, and
        # this service's own fetch/peek skip them.
        self._retired: dict[bytes, float] = {}
        # Local name index so names()/len() stay meaningful; contents
        # live in the DHT.
        self._names: set[GdpName] = set()
        # Per-query DHT cost, surfaced through the metrics registry so
        # bench/tests can assert the O(log n) hop bound (§VII).
        self._c_dht_lookups = metrics.counter("dht.lookups")
        self._c_dht_messages = metrics.counter("dht.messages")
        self._c_dht_refused = metrics.counter("dht.records_refused")
        self._h_dht_hops = metrics.histogram("dht.hops")

    # -- internals ---------------------------------------------------------

    def _home_node(self) -> DhtNode:
        """The service's own access point (a local handle, the one node
        whose state is *ours* rather than the untrusted fabric's)."""
        return self.dht._entry_node(self.home)

    def _record_for(self, entry: RouteEntry) -> dict:
        """The record carrying *entry*'s wire form.  The record TTL is
        capped by the entry's lease — a record must not outlive the
        binding it carries."""
        expiry = self._clock() + RECORD_TTL
        if entry.expires_at is not None:
            expiry = min(expiry, entry.expires_at)
        return make_record(entry.to_wire(), expiry)

    def _retire(self, record: dict) -> None:
        self._retired[value_principal(record["d"])] = record_expiry(record)

    def _publish(self, name: GdpName, record: dict) -> None:
        """Merge *record* into the home node's replica immediately
        (mid-run lookups and republish never race the publish RPCs),
        then replicate it through the DHT."""
        home = self._home_node()
        home.merge_record(name, dict(record))
        home.ctx.spawn(
            self.dht.put_records_proc(self.home, name, [dict(record)]),
            f"dht-publish:{name.human()}",
        )

    # -- the backing surface ------------------------------------------------

    def store(self, entry: RouteEntry) -> None:
        """Publish *entry*, replacing the principal's previous binding:
        the old value is retired here and expires on the holders."""
        record = self._record_for(entry)
        published = self._published.setdefault(entry.name, {})
        old = published.get(entry.principal.raw)
        if old is not None and old["d"] != record["d"]:
            self._retire(old)
        self._retired.pop(value_principal(record["d"]), None)
        published[entry.principal.raw] = record
        self._names.add(entry.name)
        self._publish(entry.name, record)

    def plant(self, name: GdpName, entry: RouteEntry) -> None:
        """File *entry* under *name* in the home node's replica only."""
        self._names.add(name)
        self._home_node().merge_record(name, self._record_for(entry))

    def drop(self, name: GdpName, principal: GdpName) -> None:
        """Withdraw the (name, principal) binding: it is retired here,
        no longer republished, and expires on the holders."""
        published = self._published.get(name)
        if published is None:
            return
        old = published.pop(principal.raw, None)
        if old is not None:
            self._retire(old)
        if not published:
            del self._published[name]
            self._names.discard(name)

    def fetch(self, name: GdpName):
        """A full message-level lookup of *name* (a process); returns
        the live entries."""
        try:
            result = yield from self.dht.get_proc(self.home, name)
        except Exception:
            return []  # resolution failure == miss
        self._c_dht_lookups.inc()
        self._c_dht_messages.inc(result.messages)
        self._h_dht_hops.observe(result.hops)
        now = self._clock()
        wires = [
            record["d"]
            for digest, record in result.records.items()
            if digest not in self._retired
        ]
        return [
            e for e in _decode(wires, self._c_dht_refused)
            if not e.is_expired(now)
        ]

    def peek(self, name: GdpName) -> list[RouteEntry]:
        """Everything decodable in the home replica's live records for
        *name*, lease-expired entries included (oracles and tests)."""
        now = self._clock()
        slot = self._home_node().store.get(name, {})
        return _decode([
            record["d"]
            for digest, record in slot.items()
            if digest not in self._retired and record_expiry(record) > now
        ])

    def purge_expired(self, now: float) -> int:
        """Reclaim the home replica's expired records (every other
        holder culls its own) and forget retired values that expired."""
        self._retired = {
            digest: expiry
            for digest, expiry in self._retired.items()
            if expiry > now
        }
        return self._home_node().cull_expired(now)

    def names(self) -> set[GdpName]:
        return set(self._names)

    def __len__(self) -> int:
        return len(self._names)

    # -- churn maintenance -------------------------------------------------

    def republish_proc(self):
        """Re-put every current binding with a refreshed TTL (holders
        extend the same value in place, newcomers and healed nodes
        receive a copy).  This is both republish-on-expiry and the
        re-replication path after holder churn."""
        now = self._clock()
        republished = 0
        for name in list(self._published):
            published = self._published.get(name, {})
            fresh: list[dict] = []
            for principal, record in list(published.items()):
                expiry = now + RECORD_TTL
                try:
                    lease = RouteEntry.from_wire(record["d"]).expires_at
                except Exception:
                    lease = None
                if lease is not None:
                    if lease <= now:
                        del published[principal]
                        continue
                    expiry = min(expiry, lease)
                refreshed = make_record(record["d"], expiry)
                published[principal] = refreshed
                fresh.append(dict(refreshed))
            if not published:
                del self._published[name]
                self._names.discard(name)
                continue
            yield from self.dht.put_records_proc(self.home, name, fresh)
            republished += 1
        return republished

    def replication_report(self) -> dict:
        """God-mode *diagnostic* snapshot for the simtest oracle: how
        many live nodes hold each published name right now — an
        unexpired copy of any value naming a principal with a current
        binding.  Never used on the protocol path — the oracle judges
        it after the heal."""
        live_nodes = [
            node for node in self.dht.nodes.values() if not node.crashed
        ]
        now = self._clock()
        names: dict[str, int] = {}
        for name in sorted(self._names):
            principals = {
                principal
                for principal, record in self._published.get(name, {}).items()
                if record_expiry(record) > now
            }
            if not principals:
                continue
            holders = 0
            for node in live_nodes:
                if any(
                    isinstance(record["d"], dict)
                    and record["d"].get("principal") in principals
                    and record_expiry(record) > now
                    for record in node.store.get(name, {}).values()
                ):
                    holders += 1
            names[name.hex()] = holders
        return {
            "k": self.dht.k,
            "live_nodes": len(live_nodes),
            "names": names,
        }


class DhtGLookupService(GLookupService):
    """The constructor spelling for a GLookupService backed by a
    Kademlia DHT.

    ``home`` is this service's access point into the DHT (the node it
    issues put/get through — e.g. the tier-1 provider's own DHT node);
    it must already be a member.
    Hierarchy semantics (parent / scope propagation) and the register /
    unregister / lookup policy are :class:`GLookupService`'s; only the
    storage substrate differs.
    """

    def __init__(
        self,
        domain_name: str,
        dht: KademliaDht,
        home: GdpName,
        parent: "GLookupService | None" = None,
        *,
        verify_on_register: bool = True,
        clock: Callable[[], float] | None = None,
        metrics=None,
    ):
        if home not in dht.nodes:
            raise ValueError(f"home {home.human()} is not a DHT member")
        self.dht = dht
        self.home = home
        super().__init__(
            domain_name,
            parent,
            verify_on_register=verify_on_register,
            clock=clock,
            metrics=metrics,
        )

    def _open_table(self) -> _DhtTable:
        return _DhtTable(self.dht, self.home, self._clock, self.metrics)

    def republish_proc(self):
        """Process body: one republish pass over the backing."""
        return self._table.republish_proc()

    def replication_report(self) -> dict:
        """The backing's god-mode replication snapshot (oracle only)."""
        return self._table.replication_report()


class DhtRepublishDaemon(Periodic):
    """Periodic republish driver (one per DHT-backed service).

    Runs :meth:`DhtGLookupService.republish_proc` every third of the
    record TTL (unjittered) — well inside it, so records neither vanish
    early (republish beats expiry) nor accumulate forever (unrefreshed
    records die one TTL after their last publish).
    """

    def __init__(self, service: DhtGLookupService):
        super().__init__(
            service.dht.net.ctx,
            f"dht-republish:{service.domain_name}",
            RECORD_TTL / 3.0,
        )
        self.service = service

    def _tick(self):
        return self.service.republish_proc()
