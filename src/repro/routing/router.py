"""GDP-routers: flat-namespace forwarding with verified state (§VII, §VIII).

A router belongs to one routing domain.  It keeps a local FIB (name ->
next-hop node) populated from two sources: *secure advertisements* by
directly attached endpoints (after a challenge-response proof of key
possession), and on-demand lookups in the domain's GLookupService
hierarchy, whose entries the router **re-verifies** before installing —
the GLookupService "is not required to be trusted".

Forwarding algorithm per PDU (destination name *N*):

1. FIB hit -> forward to the cached next hop.
2. Local-domain GLookup hit with ``router=R`` -> verify, install,
   forward along the intra-domain path to *R* (anycast picks the
   closest of several replicas).
3. Local hit with ``via_child=C`` -> forward toward child domain *C*.
4. Ancestor hit -> forward toward the parent domain (the PDU climbs
   until step 2/3 applies).
5. Nothing anywhere -> emit a ``no_route`` error back to the source.

Steps 2-4 are one loop over the GLookup tiers (``_walk``); a tier whose
answer is pending (a DHT lookup mid-run) parks the PDU and the loop
resumes with the answer.

Processing cost is modelled as a single-server queue with a configurable
per-PDU service time, which is what gives the Figure 6 forwarding-rate
curve its small-PDU plateau; link bandwidth supplies the large-PDU
throughput ceiling.
"""

from __future__ import annotations

import secrets
from collections import deque
from typing import Any

from repro.errors import AdvertisementError, RoutingError
from repro.naming.metadata import Metadata, make_router_metadata
from repro.naming.names import GdpName
from repro.crypto.keys import SigningKey
from repro.routing import pdu as pdutypes
from repro.routing.domain import RoutingDomain
from repro.routing.fib import CompactFib
from repro.routing.glookup import RouteEntry, expiry_from_wire
from repro.routing.pdu import Pdu
from repro.runtime.dispatch import find_handler, on_ptype
from repro.runtime.network import Network, Node

__all__ = ["GdpRouter", "ADVERT_DOMAIN_TAG"]

ADVERT_DOMAIN_TAG = b"gdp.advertise"

#: default per-PDU service time ~ the paper's 120k PDU/s plateau (Fig. 6)
DEFAULT_SERVICE_TIME = 1.0 / 120_000.0

#: resolution verdict while a GLookup tier's answer is in flight (the
#: DHT, mid-run): the PDU is parked, not bounced
_PENDING = object()

#: ceiling on PDUs parked per destination while its resolution runs
MAX_PARKED_PER_DST = 64

#: how long a route installed without a lease stays in the FIB
FIB_TTL = 3600.0

#: how long a full resolution miss is cached (negative cache)
NEG_TTL = 1.0

#: how long a replica reported dead by a client is steered around
QUARANTINE_TTL = 10.0


class GdpRouter(Node):
    """A flat-namespace router inside one routing domain."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        domain: RoutingDomain,
        *,
        owner: SigningKey | None = None,
        service_time: float = DEFAULT_SERVICE_TIME,
        egress_bandwidth: float | None = None,
    ):
        super().__init__(network, node_id)
        self.domain = domain
        self._key = SigningKey.from_seed(
            b"router:" + node_id.encode()
        ) if owner is None else owner
        self.metadata: Metadata = make_router_metadata(
            self._key, self._key.public, extra={"node_id": node_id}
        )
        self.name: GdpName = self.metadata.name
        self.service_time = service_time
        #: aggregate egress capacity in bytes/s (None = unlimited) —
        #: models the router host's NIC; gives Fig. 6 its 1 Gbps ceiling
        self.egress_bandwidth = egress_bandwidth
        self._busy_until = 0.0
        #: PDUs waiting out their service time, in arrival order
        self._inbox: deque[tuple[Pdu, Any]] = deque()
        self._egress_busy_until = 0.0
        #: directly attached endpoints (advertisement bindings); these
        #: are ground truth, not cache, and survive FIB flushes
        self.attached: dict[GdpName, Node] = {}
        #: name -> (next-hop node, expiry sim-time) — the route *cache*,
        #: packed (44 bytes/route) with lease-wheel reclamation
        self.fib = CompactFib(clock=lambda: self.ctx.now)
        #: name -> expiry sim-time of a cached resolution *miss*
        self._neg_cache: dict[GdpName, float] = {}
        #: name -> PDUs parked while a tier's pending answer is in
        #: flight; one resolution walk per name, late arrivals pile on
        self._parked: dict[GdpName, list[tuple[Pdu, Node]]] = {}
        #: principal -> expiry sim-time of a client-reported dead replica
        self._quarantine: dict[GdpName, float] = {}
        self._pending_challenges: dict[GdpName, tuple[bytes, Node]] = {}
        self.pipeline = network.node_pipeline()
        self.transport = network.transport_for(self).bind(self.handle_message)
        #: learn reverse routes from traversing PDUs (source -> ingress
        #: peer).  Off in sim mode — the GLookup hierarchy resolves
        #: everything there and learning would perturb pinned traces; the
        #: socket fleet turns it on so responses can cross processes that
        #: share no GLookupService.
        self.learn_source_routes = False
        metrics = self.metrics
        self._c_forwarded = metrics.counter("router.forwarded")
        self._c_bytes = metrics.counter("router.bytes")
        self._c_no_route = metrics.counter("router.no_route")
        self._c_verified_installs = metrics.counter("router.verified_installs")
        self._c_ttl_expired = metrics.counter("router.ttl_expired")
        self._c_failovers = metrics.counter("router.failovers")
        self._c_negative_hits = metrics.counter("glookup.negative_hits")
        self._c_parked = metrics.counter("router.parked")
        self._c_fib_purged = metrics.counter("router.fib_purged")
        domain.add_router(self)

    # -- link layer -------------------------------------------------------

    def receive(self, message: Any, sender: Node, link: Any) -> None:
        """Link-layer entry (sim mode): hand off to the transport."""
        self.transport.deliver(message, sender)

    def handle_message(self, message: Any, peer: Any) -> None:
        """Transport-neutral inbound dispatch."""
        if not isinstance(message, Pdu):
            raise RoutingError(f"router received non-PDU {message!r}")
        if self.pipeline:
            message = self.pipeline.run_inbound(self, message, peer)
            if message is None:
                return
        # Single-server processing queue: each PDU occupies the
        # forwarding engine for service_time seconds.
        start = max(self.ctx.now, self._busy_until)
        self._busy_until = start + self.service_time
        delay = self._busy_until - self.ctx.now
        self._inbox.append((message, peer))
        self.ctx.schedule(delay, self._process)

    def _send_pdu(self, next_hop: Node, pdu: Pdu) -> None:
        if self.pipeline:
            out = self.pipeline.run_outbound(self, pdu)
            if out is None:
                return
            pdu = out
        if self.egress_bandwidth is None:
            self.transport.send(next_hop, pdu)
            return
        # Shared-NIC egress queue: transmissions serialize across all
        # output links at the aggregate line rate.
        start = max(self.ctx.now, self._egress_busy_until)
        self._egress_busy_until = start + pdu.size_bytes / self.egress_bandwidth
        delay = start - self.ctx.now
        if delay <= 0:
            self.transport.send(next_hop, pdu)
        else:
            self.ctx.schedule(delay, self.transport.send, next_hop, pdu)

    # -- control plane: secure advertisement ------------------------------

    def _process(self) -> None:
        # Serve the *oldest* PDU: arrival order holds even where a
        # wall-clock loop runs a short delay before an earlier long timer.
        pdu, from_node = self._inbox.popleft()
        if pdu.dst == self.name:
            self._handle_control(pdu, from_node)
            return
        self._forward(pdu, from_node)

    def _handle_control(self, pdu: Pdu, from_node: Node) -> None:
        """Control-plane dispatch through the ``"ptype"`` registry;
        unknown control PDUs are dropped silently (robustness
        principle)."""
        handler = find_handler(self, pdu.ptype, space="ptype")
        if handler is not None:
            handler(pdu, from_node)

    @on_ptype(pdutypes.T_ADV_WITHDRAW)
    def _on_adv_withdraw(self, pdu: Pdu, from_node: Node) -> None:
        """Withdraw previously advertised names.  Authorization: the
        request must arrive over the attachment link of the endpoint
        whose self-name is the PDU source (the link was authenticated by
        the original challenge-response), and only names advertised by
        that principal are removable."""
        owner_node = self.attached.get(pdu.src)
        if owner_node is not from_node:
            return  # not the authenticated attachment: ignore
        for raw in pdu.payload.get("names", []):
            try:
                name = GdpName(raw)
            except Exception:
                continue
            self.domain.glookup.unregister(name, pdu.src)
            # A withdrawal must take effect across the whole domain
            # tree, not just this router — sibling routers holding a
            # cached route to the withdrawn name would otherwise keep
            # forwarding into a black hole until their FIB TTL lapsed.
            self.domain.purge_name(name)

    @on_ptype(pdutypes.T_ADV_HELLO)
    def _on_adv_hello(self, pdu: Pdu, from_node: Node) -> None:
        """Start challenge-response with an attaching endpoint (§VII:
        "the DataCapsule-server engages in a challenge-response process
        with the GDP-router to prove that it possesses the private
        key")."""
        try:
            metadata = Metadata.from_wire(pdu.payload["metadata"])
            metadata.verify()
        except Exception:
            return  # garbage hello: ignore
        if metadata.name != pdu.src:
            return
        nonce = secrets.token_bytes(32)
        self._pending_challenges[metadata.name] = (nonce, from_node)
        reply = pdu.response(pdutypes.T_ADV_CHALLENGE, {"nonce": nonce})
        self._send_pdu(from_node, reply)

    @on_ptype(pdutypes.T_ADV_RESPONSE)
    def _on_adv_response(self, pdu: Pdu, from_node: Node) -> None:
        pending = self._pending_challenges.get(pdu.src)
        if pending is None:
            return
        nonce, endpoint_node = pending
        if from_node is not endpoint_node:
            # The attachment binds to the link the HELLO arrived on; a
            # signed response from any other link is ignored *without*
            # consuming the pending challenge, so an attacker replaying
            # the response elsewhere cannot break the honest handshake.
            return
        del self._pending_challenges[pdu.src]
        try:
            accepted, leases = self._verify_advertisement(pdu, nonce)
        except AdvertisementError:
            # The nonce is spent, but a fresh HELLO re-issues a new
            # challenge, so the endpoint can always retry.
            reply = pdu.response(
                pdutypes.T_ADV_ACK, {"accepted": [], "error": "rejected"}
            )
            self._send_pdu(from_node, reply)
            return
        # The endpoint's own name is a direct-attachment binding (ground
        # truth while the endpoint is connected); catalog names (capsules)
        # go through the expiring FIB + GLookup so that failover to other
        # replicas can age them out.
        if accepted:
            self.attached[accepted[0]] = endpoint_node
        for name in accepted[1:]:
            self._install(name, endpoint_node, lease=leases.get(name))
        reply = pdu.response(
            pdutypes.T_ADV_ACK, {"accepted": [n.raw for n in accepted]}
        )
        self._send_pdu(from_node, reply)

    @on_ptype(pdutypes.T_ROUTE_INVALIDATE)
    def _on_route_invalidate(self, pdu: Pdu, from_node: Node) -> None:
        """A client reports that a cached route led nowhere (its request
        timed out or bounced).  Authorization: the report must arrive
        over the reporter's authenticated attachment link.  The named
        route is dropped (forcing re-resolution) and, when the reporter
        names the replica that went dark, that principal is quarantined
        so anycast steers the retry elsewhere."""
        if self.attached.get(pdu.src) is not from_node:
            return  # not the authenticated attachment: ignore
        payload = pdu.payload
        for raw in payload.get("unreachable", []) if isinstance(
            payload.get("unreachable"), list
        ) else [payload.get("unreachable")]:
            if raw is None:
                continue
            try:
                name = GdpName(raw)
            except Exception:
                continue
            self.fib.pop(name, None)
        principal_raw = payload.get("principal")
        if principal_raw is not None:
            try:
                principal = GdpName(principal_raw)
            except Exception:
                principal = None
            if principal is not None:
                self._quarantine[principal] = (
                    self.ctx.now + QUARANTINE_TTL
                )
        self._c_failovers.inc()

    def _verify_advertisement(
        self, pdu: Pdu, nonce: bytes
    ) -> tuple[list[GdpName], dict[GdpName, float | None]]:
        """Verify the challenge signature and each catalog entry; returns
        the accepted names (registered in the GLookupService) plus each
        name's lease expiry."""
        payload = pdu.payload
        try:
            metadata = Metadata.from_wire(payload["metadata"])
            metadata.verify()
            signature = payload["signature"]
        except Exception as exc:
            raise AdvertisementError(f"malformed advertisement: {exc}") from exc
        if metadata.name != pdu.src:
            raise AdvertisementError("advertisement name mismatch")
        challenge_preimage = ADVERT_DOMAIN_TAG + nonce + self.name.raw
        if not metadata.self_key.verify(challenge_preimage, signature):
            raise AdvertisementError("challenge-response signature invalid")
        accepted: list[GdpName] = []
        leases: dict[GdpName, float | None] = {}
        now = self.ctx.now
        # The endpoint's own name.
        from repro.delegation.certs import RtCert

        rtcert = (
            RtCert.from_wire(payload["rtcert"])
            if payload.get("rtcert") is not None
            else None
        )
        self_lease = expiry_from_wire(payload.get("expires_at"))
        self_entry = RouteEntry(
            metadata.name,
            router=self.name,
            principal=metadata.name,
            principal_metadata=metadata,
            rtcert=rtcert,
            chain=None,
            router_metadata=self.metadata,
            expires_at=self_lease,
        )
        self_entry.verify(now=now)
        self.domain.glookup.register(self_entry)
        accepted.append(metadata.name)
        leases[metadata.name] = self_lease
        # Capsule catalog entries.
        from repro.delegation.chain import ServiceChain

        for raw_entry in payload.get("catalog", []):
            try:
                chain = ServiceChain.from_wire(raw_entry["chain"])
                lease = expiry_from_wire(raw_entry.get("expires_at"))
                entry = RouteEntry(
                    chain.capsule,
                    router=self.name,
                    principal=metadata.name,
                    principal_metadata=metadata,
                    rtcert=rtcert,
                    chain=chain,
                    router_metadata=self.metadata,
                    expires_at=lease,
                )
                entry.verify(now=now)
                if chain.server != metadata.name:
                    raise AdvertisementError(
                        "catalog chain is for a different server"
                    )
                self.domain.glookup.register(entry)
                accepted.append(chain.capsule)
                leases[chain.capsule] = lease
            except Exception:
                # One bad catalog entry must not sink the rest; the
                # endpoint learns from the accepted list what stuck.
                continue
        # A fresh advertisement is a liveness proof: lift any replica
        # quarantine on the principal and forget cached misses for the
        # names it just proved reachable.
        self._quarantine.pop(metadata.name, None)
        for name in accepted:
            self._neg_cache.pop(name, None)
        return accepted, leases

    # -- data plane: forwarding -------------------------------------------

    def _forward(self, pdu: Pdu, from_node: Node) -> None:
        if self.learn_source_routes and from_node is not self:
            # Transparent reverse-path learning (socket fleet): remember
            # which peer PDUs from this source arrive through, so the
            # response can retrace the path without a shared GLookup.
            if pdu.src not in self.attached:
                self._install(pdu.src, from_node)
        if pdu.ttl <= 0:
            # Exhausted hop budget is a loop/black-hole symptom, not a
            # missing route — keep the diagnostics separable.
            self._c_ttl_expired.inc()
            return
        next_hop = self._resolve_next_hop(pdu.dst, pdu, from_node)
        if next_hop is _PENDING:
            return  # parked: the resolution forwards or bounces it
        if next_hop is None:
            self._c_no_route.inc()
            self._bounce_no_route(pdu, from_node)
            return
        self._c_forwarded.inc()
        self._c_bytes.inc(pdu.size_bytes)
        self._send_pdu(next_hop, pdu.decremented())

    def _bounce_no_route(self, pdu: Pdu, from_node: Node) -> None:
        if pdu.ptype == pdutypes.T_NO_ROUTE:
            return  # never bounce a bounce
        # The header's corr_id already correlates the bounce; repeating
        # the raw counter in the payload would make the encoded size
        # depend on process-lifetime PDU counts and break trace replay.
        error = Pdu(
            self.name,
            pdu.src,
            pdutypes.T_NO_ROUTE,
            {"unreachable": pdu.dst.raw},
            corr_id=pdu.corr_id,
        )
        back = self._resolve_next_hop(pdu.src)
        if back is not None and back is not _PENDING:
            self._send_pdu(back, error)
        elif from_node is not self:
            # A pending resolution toward the *source* is not worth
            # parking an error (or starting a fetch) for: retrace the
            # arrival link.
            self._send_pdu(from_node, error)

    def _resolve_next_hop(
        self, dst: GdpName, pdu: Pdu | None = None, from_node: Node | None = None
    ) -> Node | None:
        """The next hop for *dst*, None for no route, or ``_PENDING``
        when a GLookup tier's answer is in flight — in which case *pdu*
        (with its ingress) has been parked; a caller with nothing to
        park (a bounce) parks and starts nothing."""
        # 0. Directly attached endpoint.
        direct = self.attached.get(dst)
        if direct is not None:
            return direct
        # 1. FIB cache.
        cached = self.fib.get(dst)
        if cached is not None:
            node, expiry = cached
            if self.ctx.now <= expiry:
                return node
            # Expired: treat as a miss.  Physical reclamation is the
            # lease wheel's job, not this lookup's.
            self._c_fib_purged.inc(self.fib.maybe_purge())
        # 1b. Negative cache: a recent full miss short-circuits the
        #     GLookup climb so dead names cannot cause per-PDU lookup
        #     storms through the hierarchy.
        neg = self._neg_cache.get(dst)
        if neg is not None:
            if self.ctx.now <= neg:
                self._c_negative_hits.inc()
                return None
            del self._neg_cache[dst]
        # 2. The GLookup hierarchy — unless a walk for this name is
        #    already parked on a pending tier, which late arrivals ride.
        waiter = None if pdu is None else (pdu, from_node)
        waiters = self._parked.get(dst)
        if waiters is None:
            return self._advance(dst, self._walk(dst), None, waiter)
        if waiter is not None:
            if len(waiters) >= MAX_PARKED_PER_DST:
                return None
            waiters.append(waiter)
            self._c_parked.inc()
        return _PENDING

    def _walk(self, dst: GdpName):
        """The one resolution walk, local tier → parent → … ("when a
        specific name cannot be found in the local GLookupService, such
        a name is queried in the GLookupService of the parent routing
        domain, and so on"), as a generator returning the next hop or
        None.  Every tier is asked the same question.  An inline answer
        is used on the spot, so a walk over inline tiers never yields;
        a pending one — the tier's resolution process — is yielded for
        :meth:`_advance` to run, and the entries it sends back resume
        this same loop, so a miss there climbs on to the ancestors."""
        local = service = self.domain.glookup
        while service is not None:
            answer = service.lookup(dst)
            if not isinstance(answer, list):
                answer = yield answer
            if answer:
                install = (
                    self._install_from_entries
                    if service is local
                    else self._install_upward
                )
                hop = install(dst, answer)
                if hop is not None:
                    return hop
            service = service.parent
        self._neg_cache[dst] = self.ctx.now + NEG_TTL
        return None

    def _advance(
        self,
        dst: GdpName,
        walk,
        answer: list[RouteEntry] | None,
        waiter: tuple[Pdu, Node] | None = None,
    ) -> Node | None:
        """Send *answer* into *walk* and run it to its verdict — or to
        its next pending tier, whose resolution is started with *waiter*
        parked behind it (``_PENDING``)."""
        try:
            resolution = walk.send(answer)
        except StopIteration as verdict:
            return verdict.value
        if dst not in self._parked:
            if waiter is None:
                return _PENDING  # never park or fetch for a bounce
            self._parked[dst] = [waiter]
            self._c_parked.inc()
        self.ctx.spawn(
            resolution, f"glookup-resolve:{dst.human()}"
        ).completion.add_callback(
            lambda future: self._resolution_done(dst, walk, future)
        )
        return _PENDING

    def _resolution_done(self, dst: GdpName, walk, future) -> None:
        """A pending tier answered: resume the walk, and once it
        reaches a verdict release every parked PDU — forwarded on
        success, bounced on a miss."""
        hop = self._advance(dst, walk, future.result())
        if hop is _PENDING:
            return  # now waiting on an ancestor tier
        for pdu, from_node in self._parked.pop(dst):
            if hop is None:
                self._c_no_route.inc()
                self._bounce_no_route(pdu, from_node)
            else:
                self._c_forwarded.inc()
                self._c_bytes.inc(pdu.size_bytes)
                self._send_pdu(hop, pdu.decremented())

    def _install_upward(
        self, dst: GdpName, entries: list[RouteEntry]
    ) -> Node | None:
        """Install the upward route for an ancestor tier's answer.  The
        remote GLookupService is no more trusted than the local one:
        re-verify before installing, and cap the cache lifetime at the
        evidence's lease."""
        for entry in entries:
            try:
                entry.verify(now=self.ctx.now)
            except Exception:
                continue
            self._c_verified_installs.inc()
            hop = self.domain.next_hop_upward(self)
            self._install(dst, hop, lease=entry.expires_at)
            return hop
        return None

    def _install_from_entries(
        self, dst: GdpName, entries: list[RouteEntry]
    ) -> Node | None:
        """Anycast selection + verification + FIB install for a
        local-domain GLookup answer."""
        from repro.routing.anycast import select_entry

        # Steer around replicas under failover quarantine, unless they
        # are all quarantined (a possibly-stale route beats no route).
        now = self.ctx.now
        live = [e for e in entries if not self._is_quarantined(e.principal, now)]
        choice = select_entry(self, live or entries)
        if choice is None:
            return None
        # Routers do not trust the GLookupService: re-verify evidence.
        try:
            choice.verify(now=self.ctx.now)
            self._c_verified_installs.inc()
        except Exception:
            # Forged entry (compromised GLookupService): refuse, and try
            # any other replica that does verify.
            rest = [e for e in entries if e is not choice]
            return self._install_from_entries(dst, rest) if rest else None
        if choice.via_child is not None:
            hop: Node = self.domain.next_hop_to_child(self, choice.via_child)
        else:
            attachment_router = self._router_by_name(choice.router)
            if attachment_router is None:
                return None
            if attachment_router is self:
                # The serving endpoint is attached *here*: deliver over
                # its attachment link (recovered via the principal name,
                # so a flushed route cache self-heals).
                endpoint = self.attached.get(choice.principal)
                if endpoint is None:
                    # It really detached: stale entry, try other replicas.
                    rest = [e for e in entries if e is not choice]
                    return (
                        self._install_from_entries(dst, rest) if rest else None
                    )
                self._install(dst, endpoint, lease=choice.expires_at)
                return endpoint
            hop = self.domain.next_hop_to_router(self, attachment_router)
        self._install(dst, hop, lease=choice.expires_at)
        return hop

    def _is_quarantined(self, principal: GdpName, now: float) -> bool:
        expiry = self._quarantine.get(principal)
        if expiry is None:
            return False
        if now > expiry:
            del self._quarantine[principal]
            return False
        return True

    def _router_by_name(self, name: GdpName | None) -> "GdpRouter | None":
        return self.domain.router_by_name(name)

    def _install(
        self, dst: GdpName, hop: Node, *, lease: float | None = None
    ) -> None:
        """Cache a route; the entry can never outlive its evidence — the
        FIB expiry is capped at the advertisement lease."""
        expiry = self.ctx.now + FIB_TTL
        if lease is not None:
            expiry = min(expiry, lease)
        self.fib[dst] = (hop, expiry)
        self._c_fib_purged.inc(self.fib.maybe_purge())
        self._neg_cache.pop(dst, None)

    def add_static_route(self, name: GdpName, peer: Any) -> None:
        """Install a permanent next hop for *name* (fleet interconnect).

        Like a direct attachment, this is configuration ground truth,
        not cache: it survives FIB flushes and never expires."""
        self.attached[name] = peer

    def drop_route(self, dst: GdpName) -> None:
        """Forget cached state for one name (route + negative cache);
        direct attachments are ground truth and stay."""
        self.fib.pop(dst, None)
        self._neg_cache.pop(dst, None)

    def flush_fib(self) -> None:
        """Drop all *cached* routes (positive and negative); direct
        attachments stay (they are advertisement ground truth, not
        cache)."""
        self.fib.clear()
        self._neg_cache.clear()
