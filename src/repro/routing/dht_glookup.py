"""A DHT-backed global GLookupService tier (§VII).

"Note that the GLookupService is essentially a key-value store and is
not required to be trusted; existing technologies such as distributed
hash tables (DHTs) can be used to implement a highly distributed and
scalable GLookupService."

:class:`DhtGLookupService` is a drop-in GLookupService whose entry
storage is a message-level Kademlia DHT.  Entries travel as wire forms
inside per-principal *versioned* records: replacing a binding publishes
a higher version, removing one publishes a tombstone, and holders merge
newest-wins — so replacement and deletion work through STORE messages
alone, with no reach into other nodes' stores.  Records are TTL'd;
:class:`DhtRepublishDaemon` re-puts the authoritative copies before the
TTL lapses, which doubles as re-replication after holder churn (each
republish lands on the *currently* closest live nodes).

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
)
from repro.routing.glookup import GLookupService, RouteEntry

__all__ = ["DhtGLookupService", "DhtRepublishDaemon"]


class DhtGLookupService(GLookupService):
    """GLookupService storing entries in a Kademlia DHT.

    ``home`` is this service's access point into the DHT (the node it
    issues put/get through — e.g. the tier-1 provider's own DHT node).
    Hierarchy semantics (parent / scope propagation) are inherited
    unchanged; only the storage substrate differs.

    The service is **asynchronous**: resolution RPCs take simulated
    time, so in-simulation consumers (routers) must use :meth:`fetch`
    and park the triggering PDU until the future resolves.  The
    synchronous :meth:`lookup` drives the simulation when it is
    quiescent (tests, benches) and falls back to the home node's local
    replica when called mid-run.
    """

    #: routers check this to decide between sync lookup and fetch()
    asynchronous = True

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
        record_ttl: float = RECORD_TTL,
    ):
        super().__init__(
            domain_name,
            parent,
            verify_on_register=verify_on_register,
            clock=clock,
            metrics=metrics,
        )
        if home not in dht.nodes:
            dht.join(home)
        self.dht = dht
        self.home = home
        self.record_ttl = record_ttl
        # Monotonic publish clock: every register/unregister bumps it,
        # so newest-wins merging on the holders is total-ordered.
        self._version = 0
        # Authoritative published records: name -> principal -> record
        # (what the republish daemon re-puts; tombstones live here too
        # until their TTL would have lapsed everywhere).
        self._published: dict[GdpName, dict[bytes, dict]] = {}
        # Local name index so names()/len() stay meaningful; contents
        # live in the DHT.
        self._names: set[GdpName] = set()
        # Per-query DHT cost, surfaced through the metrics registry so
        # bench/tests can assert the O(log n) hop bound (§VII).
        self._c_dht_lookups = self.metrics.counter("dht.lookups")
        self._c_dht_messages = self.metrics.counter("dht.messages")
        self._c_dht_under_replicated = self.metrics.counter(
            "dht.under_replicated"
        )
        self._h_dht_hops = self.metrics.histogram("dht.hops")

    # -- internals ---------------------------------------------------------

    def _home_node(self) -> DhtNode:
        """The service's own access point (a local handle, the one node
        whose state is *ours* rather than the untrusted fabric's)."""
        return self.dht._entry_node(self.home)

    def _record_for(self, entry: RouteEntry, wire: dict) -> dict:
        """One versioned record carrying *entry*'s wire form.  The
        record TTL is capped by the entry's lease — a record must not
        outlive the binding it carries."""
        expiry = self.now + self.record_ttl
        if entry.expires_at is not None:
            expiry = min(expiry, entry.expires_at)
        return make_record(
            entry.principal.raw, self._version, wire, expiry
        )

    def _publish(self, name: GdpName, records: list[dict]) -> None:
        """Replicate *records* through the DHT: drive to completion when
        the simulation is quiescent, spawn a process when it is mid-run
        (router-triggered registrations during chaos)."""
        sim = self.dht.net.sim
        if getattr(sim, "running", False):
            sim.spawn(
                self._publish_proc(name, records),
                name=f"dht-publish:{name.human()}",
            )
        else:
            sim.run_process(
                self._publish_proc(name, records),
                name=f"dht-publish:{name.human()}",
            )

    def _publish_proc(self, name: GdpName, records: list[dict]):
        acked = yield from self.dht.put_records_proc(self.home, name, records)
        if acked < min(self.dht.k, len(self.dht)):
            self._c_dht_under_replicated.inc()
        return acked

    def _decode_live(self, wires: list, now: float) -> list[RouteEntry]:
        entries = []
        for wire in wires:
            try:
                entry = RouteEntry.from_wire(wire)
            except Exception:
                continue  # garbage from an untrusted DHT node: skip
            if not entry.is_expired(now):
                entries.append(entry)
        return entries

    def _observe_query(self) -> None:
        self._c_dht_lookups.inc()
        self._c_dht_messages.inc(self.dht.last_messages)
        self._h_dht_hops.observe(self.dht.last_hops)

    # -- the GLookupService surface ----------------------------------------

    def register(self, entry: RouteEntry, *, propagate: bool = True) -> None:
        """Verify (unless compromised) and publish an entry.

        Replacement is per-principal and versioned: holders merge the
        higher version and the old binding dies everywhere the STOREs
        reach — no global store-wipe, no god-mode.
        """
        if self.verify_on_register:
            entry.verify(now=self.now)
            if not entry.allows_domain(self.domain_name):
                from repro.errors import ScopeViolationError

                raise ScopeViolationError(
                    f"capsule {entry.name.human()} is not allowed in "
                    f"domain {self.domain_name!r}"
                )
        self._version += 1
        record = self._record_for(entry, entry.to_wire())
        self._published.setdefault(entry.name, {})[
            entry.principal.raw
        ] = record
        self._names.add(entry.name)
        # The home node keeps an authoritative local replica immediately
        # (mid-run lookups and republish never race the publish RPCs).
        self._home_node().merge_record(entry.name, dict(record))
        self._publish(entry.name, [dict(record)])
        if propagate and self.parent is not None:
            if entry.allows_domain(self.parent.domain_name):
                self.parent.register(entry.child_copy(self.domain_name))

    def unregister(self, name: GdpName, principal: GdpName) -> None:
        """Remove the binding for (name, principal), recursively up.

        Deletion is a published *tombstone*: a higher-version record
        that masks the value on every holder it reaches and expires
        after one record TTL (by which time the value record it masks
        has expired everywhere too).
        """
        self._version += 1
        tombstone = make_record(
            principal.raw,
            self._version,
            b"",
            self.now + self.record_ttl,
            tombstone=True,
        )
        published = self._published.get(name)
        if published is not None:
            published[principal.raw] = tombstone
            if not any(
                not record.get("t") for record in published.values()
            ):
                self._names.discard(name)
        self._home_node().merge_record(name, dict(tombstone))
        self._publish(name, [dict(tombstone)])
        if self.parent is not None:
            self.parent.unregister(name, principal)

    def fetch(self, name: GdpName):
        """Asynchronous lookup: returns a Future resolving with the live
        entries for *name* (the router's parked-PDU resolution path)."""
        ctx = self.dht.net.ctx
        future = ctx.future()

        def proc():
            result = yield from self.dht.get_proc(self.home, name)
            self._c_queries.inc()
            self._observe_query()
            entries = self._decode_live(result.values, self.now)
            if not entries:
                self._c_misses.inc()
            return entries

        def done(completion) -> None:
            try:
                future.resolve(completion.result())
            except Exception:
                future.resolve([])  # resolution failure == miss

        sim = self.dht.net.sim
        if not getattr(sim, "running", False):
            # The overlay lives on its own (quiescent) simulator — e.g.
            # a privately-built KademliaDht under a router world on a
            # different SimNetwork.  Drive it to completion here; the
            # caller sees an already-resolved future and must not rely
            # on add_callback (which would schedule on *this* sim).
            try:
                future.resolve(
                    sim.run_process(proc(), name=f"dht-fetch:{name.human()}")
                )
            except Exception:
                future.resolve([])
            return future
        ctx.spawn(proc(), name=f"dht-fetch:{name.human()}").completion\
            .add_callback(done)
        return future

    def lookup(self, name: GdpName) -> list[RouteEntry]:
        """Live entries for *name* (expired ones culled).

        Quiescent (tests/benches): drives a full message-level lookup.
        Mid-simulation: serves the home node's local replica — routers
        use :meth:`fetch` for real resolution, so this fallback only
        backs auxiliary sync callers.
        """
        sim = self.dht.net.sim
        if getattr(sim, "running", False):
            self._c_queries.inc()
            entries = self._decode_live(
                self._home_node().live_values(name), self.now
            )
            if not entries:
                self._c_misses.inc()
            return entries
        self._c_queries.inc()
        result = sim.run_process(
            self.dht.get_proc(self.home, name), "dht-lookup"
        )
        self._observe_query()
        entries = self._decode_live(result.values, self.now)
        if not entries:
            self._c_misses.inc()
        return entries

    def peek(self, name: GdpName) -> list[RouteEntry]:
        """Diagnostic view: everything decodable stored for *name* —
        no counters, no expiry culling (oracles judge staleness)."""
        sim = self.dht.net.sim
        if getattr(sim, "running", False):
            wires = self._home_node().live_values(name)
        else:
            wires = sim.run_process(
                self.dht.get_proc(self.home, name), "dht-peek"
            ).values
        entries = []
        for wire in wires:
            try:
                entries.append(RouteEntry.from_wire(wire))
            except Exception:
                continue  # undecodable garbage: routers skip it too
        return entries

    # -- churn maintenance -------------------------------------------------

    def republish_proc(self):
        """Re-put every authoritative published record with a refreshed
        TTL (same version — holders extend in place, newcomers and
        healed nodes receive a copy).  This is both republish-on-expiry
        and the re-replication path after holder churn."""
        now = self.now
        republished = 0
        for name in list(self._published):
            published = self._published.get(name, {})
            fresh: list[dict] = []
            for principal, record in list(published.items()):
                if record.get("t"):
                    # Tombstones republish until their original TTL
                    # lapses, then fall away for good.
                    if record_expiry(record) <= now:
                        del published[principal]
                        continue
                    fresh.append(dict(record))
                    continue
                record = dict(record)
                expiry = now + self.record_ttl
                try:
                    lease = RouteEntry.from_wire(record["d"]).expires_at
                except Exception:
                    lease = None
                if lease is not None:
                    if lease <= now:
                        del published[principal]
                        continue
                    expiry = min(expiry, lease)
                refreshed = make_record(
                    bytes(record["p"]), record["v"], record["d"], expiry
                )
                published[principal] = refreshed
                fresh.append(dict(refreshed))
            if not published:
                del self._published[name]
                self._names.discard(name)
                continue
            if fresh:
                acked = yield from self.dht.put_records_proc(
                    self.home, name, fresh
                )
                if acked < min(self.dht.k, len(self.dht)):
                    self._c_dht_under_replicated.inc()
                republished += 1
        return republished

    def replication_report(self) -> dict:
        """God-mode *diagnostic* snapshot for the simtest oracle: how
        many live nodes hold each published name right now.  Never used
        on the protocol path — the oracle judges it after the heal."""
        live_nodes = [
            node for node in self.dht.nodes.values() if not node.crashed
        ]
        now = self.now
        names: dict[str, int] = {}
        for name in sorted(self._names):
            published = self._published.get(name, {})
            live_principals = {
                principal
                for principal, record in published.items()
                if not record.get("t") and record_expiry(record) > now
            }
            if not live_principals:
                continue
            holders = 0
            for node in live_nodes:
                slot = node.store.get(name, {})
                if any(
                    principal in slot
                    and not slot[principal].get("t")
                    and record_expiry(slot[principal]) > now
                    for principal in live_principals
                ):
                    holders += 1
            names[name.hex()] = holders
        return {
            "k": self.dht.k,
            "live_nodes": len(live_nodes),
            "names": names,
            "under_replicated_puts": self.dht.stats.under_replicated,
        }

    def names(self):
        """All names with live entries."""
        return set(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __repr__(self) -> str:
        return (
            f"DhtGLookupService(domain={self.domain_name!r}, "
            f"dht_nodes={len(self.dht)})"
        )


class DhtRepublishDaemon:
    """Periodic republish driver (one per DHT-backed service).

    Runs :meth:`DhtGLookupService.republish_proc` every ``interval``
    simulated seconds — well inside the record TTL, so records neither
    vanish early (republish beats expiry) nor accumulate forever
    (unrefreshed records die one TTL after their last publish).
    """

    def __init__(
        self, service: DhtGLookupService, interval: float | None = None
    ):
        self.service = service
        self.interval = (
            interval if interval is not None else service.record_ttl / 3.0
        )
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.service.dht.net.ctx.spawn(
            self._loop(), name=f"dht-republish:{self.service.domain_name}"
        )

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        while self._running:
            yield self.interval
            if not self._running:
                return
            yield from self.service.republish_proc()
