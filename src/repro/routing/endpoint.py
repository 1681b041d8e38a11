"""Endpoints: named principals attached to GDP-routers.

Clients and DataCapsule-servers share this machinery: a flat name
(self-certifying metadata + signing key), attachment to a router over a
simulated link, the secure-advertisement handshake, and
correlation-id-matched RPC on top of raw PDU forwarding.

The RPC here is deliberately *connectionless* (§III-D): a request is a
single routed PDU to a *name* (often a capsule name, resolved by
anycast), the response is a single PDU back; there is no connection
state in the network, so replicas can be swapped mid-conversation
without breaking anything.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.errors import (
    RoutingError, TimeoutError_, TransportError, WireFormatError,
)
from repro.naming.metadata import Metadata
from repro.naming.names import GdpName
from repro.crypto.keys import SigningKey
from repro.routing import pdu as pdutypes
from repro.routing.glookup import wire_expiry
from repro.routing.pdu import Pdu
from repro.routing.router import ADVERT_DOMAIN_TAG, GdpRouter
from repro.runtime.dispatch import find_handler, on_ptype
from repro.runtime.context import Future
from repro.runtime.network import Network, Node

__all__ = ["Endpoint"]


class Endpoint(Node):
    """A named principal (client or server) with RPC plumbing."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        metadata: Metadata,
        key: SigningKey,
        *,
        lease_ttl: float | None = None,
    ):
        super().__init__(network, node_id)
        self.metadata = metadata
        self.key = key
        self.name: GdpName = metadata.name
        self.pipeline = network.node_pipeline()
        self.transport = network.transport_for(self).bind(self.handle_message)
        self.router: GdpRouter | None = None
        #: the flat name of our attachment router (known even when the
        #: router is a remote process rather than an in-memory object)
        self.router_name: GdpName | None = None
        #: the transport peer handle toward the router (the router node
        #: in sim mode; a channel in socket mode)
        self._uplink: Any = None
        #: advertisements default to leases of this length (None keeps
        #: the pre-lease behavior: advertise forever, age out by FIB TTL)
        self.lease_ttl = lease_ttl
        self._pending_rpcs: dict[int, Future] = {}
        self._pending_adv: Future | None = None
        self._adv_catalog: list[dict] = []
        self._adv_expires: float | None = None

    # -- attachment & advertisement ----------------------------------------

    def attach(
        self,
        router: GdpRouter,
        *,
        latency: float = 0.0005,
        bandwidth: float = 125_000_000.0,
        bandwidth_up: float | None = None,
        loss: float = 0.0,
    ) -> Any:
        """Create the physical link to *router* (defaults: 0.5 ms LAN,
        1 Gbps) and remember it as our attachment point."""
        link = self.network.connect(
            self,
            router,
            latency=latency,
            bandwidth=bandwidth,
            bandwidth_up=bandwidth_up,
            loss=loss,
        )
        self.router = router
        self.router_name = router.name
        self._uplink = router
        return link

    def attach_channel(self, channel: Any, router_name: GdpName) -> None:
        """Attach over an existing transport channel (socket mode): the
        router is a remote process known only by name and connection."""
        self.router = None
        self.router_name = router_name
        self._uplink = channel

    def advertise(
        self,
        catalog: list[dict] | None = None,
        *,
        expires_at: float | None = None,
    ) -> Future:
        """Run the secure-advertisement handshake; the future resolves
        with the list of accepted raw names.

        *catalog* entries are ``{"chain": <ServiceChain wire>}`` dicts
        for each capsule this endpoint serves (servers only).

        When *expires_at* is omitted and the endpoint has a
        ``lease_ttl``, the advertisement carries a lease of that length
        from now; re-advertising (the lease-refresh daemon's job)
        extends it.
        """
        if self._uplink is None:
            raise RoutingError(f"{self.node_id} is not attached to a router")
        if self._pending_adv is not None and not self._pending_adv.done:
            raise RoutingError("advertisement already in progress")
        if expires_at is None and self.lease_ttl is not None:
            expires_at = self.ctx.now + self.lease_ttl
        self._adv_catalog = list(catalog or [])
        self._adv_expires = expires_at
        self._pending_adv = self.ctx.future()
        hello = Pdu(
            self.name,
            self.router_name,
            pdutypes.T_ADV_HELLO,
            {"metadata": self.metadata.to_wire()},
        )
        self.send_pdu(hello)
        return self._pending_adv

    @on_ptype(pdutypes.T_ADV_CHALLENGE)
    def _on_challenge(self, pdu: Pdu) -> None:
        from repro.delegation.certs import RtCert

        nonce = pdu.payload["nonce"]
        assert self.router_name is not None
        signature = self.key.sign(
            ADVERT_DOMAIN_TAG + nonce + self.router_name.raw
        )
        rtcert = RtCert.issue(
            self.key,
            self.name,
            self.router_name,
            expires_at=self._adv_expires,
        )
        # Lease expiries travel as exact packed floats (the canonical
        # encoding has no float tag); catalog entries without their own
        # lease inherit the advertisement-wide one.
        catalog = []
        for raw_entry in self._adv_catalog:
            entry = dict(raw_entry)
            lease = entry.get("expires_at", self._adv_expires)
            entry["expires_at"] = wire_expiry(lease)
            catalog.append(entry)
        response = Pdu(
            self.name,
            self.router_name,
            pdutypes.T_ADV_RESPONSE,
            {
                "metadata": self.metadata.to_wire(),
                "signature": signature,
                "rtcert": rtcert.to_wire(),
                "catalog": catalog,
                "expires_at": wire_expiry(self._adv_expires),
            },
        )
        self.send_pdu(response)

    @on_ptype(pdutypes.T_ADV_ACK)
    def _on_adv_ack(self, pdu: Pdu) -> None:
        if self._pending_adv is None or self._pending_adv.done:
            return
        payload = pdu.payload
        if payload.get("error"):
            self._pending_adv.fail(
                RoutingError(f"advertisement rejected: {payload['error']}")
            )
        else:
            self._pending_adv.resolve(payload.get("accepted", []))

    def withdraw(self, names: "list[GdpName]") -> None:
        """Withdraw advertised names at our router (fire-and-forget;
        authorization is the authenticated attachment link)."""
        if self._uplink is None:
            raise RoutingError(f"{self.node_id} is not attached")
        self.send_pdu(
            Pdu(
                self.name,
                self.router_name,
                pdutypes.T_ADV_WITHDRAW,
                {"names": [name.raw for name in names]},
            )
        )

    def abandon_advertisement(self) -> None:
        """Give up on an in-flight handshake (a lost HELLO or ACK would
        otherwise pin ``advertise()`` forever); the next ``advertise()``
        starts fresh — the router re-issues a challenge on any HELLO."""
        pending = self._pending_adv
        if pending is not None and not pending.done:
            pending.fail(
                TimeoutError_("advertisement handshake abandoned")
            )

    def catalog_entries(self) -> list[dict]:
        """The catalog a re-advertisement should carry (the last one by
        default; servers override with their live hosting table)."""
        return list(self._adv_catalog)

    def report_route_failure(
        self, name: GdpName, principal: GdpName | None = None
    ) -> None:
        """Tell our router that the route it gave us for *name* went
        dead (fire-and-forget failover hint; *principal* identifies the
        replica to quarantine for anycast)."""
        if self._uplink is None:
            return
        payload: dict = {"unreachable": name.raw}
        if principal is not None:
            payload["principal"] = principal.raw
        self.send_pdu(
            Pdu(
                self.name,
                self.router_name,
                pdutypes.T_ROUTE_INVALIDATE,
                payload,
            )
        )

    # -- RPC ---------------------------------------------------------------

    def send_pdu(self, pdu: Pdu) -> None:
        """Transmit a PDU via the attachment router (runs the outbound
        middleware chain first)."""
        if self._uplink is None:
            raise RoutingError(f"{self.node_id} is not attached")
        if self.pipeline:
            out = self.pipeline.run_outbound(self, pdu)
            if out is None:
                return
            pdu = out
        self.transport.send(self._uplink, pdu)

    def request(
        self,
        dst: GdpName,
        payload: Any,
        *,
        timeout: float | None = 30.0,
    ) -> tuple[int, Future]:
        """:meth:`rpc` for an op; returns ``(corr_id, future)``, the
        corr_id being what a secure reply is bound to."""
        request = Pdu(self.name, dst, pdutypes.T_DATA, payload)
        future = self._call(
            request, timeout, f"op {payload.get('op')} to {dst.human()}"
        )
        return request.corr_id, future

    def rpc(
        self,
        dst: GdpName,
        payload: Any,
        *,
        timeout: float | None = 30.0,
        ptype: str = pdutypes.T_DATA,
    ) -> Future:
        """Send a request PDU to a name; the future resolves with the
        response payload (or fails on no-route / timeout)."""
        return self._call(
            Pdu(self.name, dst, ptype, payload), timeout, f"rpc to {dst.human()}"
        )

    def _call(self, request: Pdu, timeout: float | None, what: str) -> Future:
        """Send *request*; its response settles the returned future."""
        future = self.ctx.future()
        self._pending_rpcs[request.corr_id] = future
        self.send_pdu(request)
        if timeout is not None:
            return self.ctx.timeout(
                future, timeout, what, partial(self._expired, request.corr_id)
            )
        return future

    def _expired(self, corr_id: int) -> None:
        """Request *corr_id*'s deadline passed unanswered: forget it."""
        self._pending_rpcs.pop(corr_id, None)

    # -- inbound dispatch ----------------------------------------------------

    def receive(self, message: Any, sender: Node, link: Any) -> None:
        """Link-layer entry (sim mode): hand off to the transport."""
        self.transport.deliver(message, sender)

    def handle_message(self, message: Any, peer: Any) -> None:
        """Transport-neutral inbound dispatch.

        PDU types map to handlers through the typed ``"ptype"`` dispatch
        registry (see :mod:`repro.runtime.dispatch`); unknown types are
        dropped.
        """
        if not isinstance(message, Pdu):
            raise TransportError(f"endpoint received non-PDU {message!r}")
        pdu = message
        if self.pipeline:
            pdu = self.pipeline.run_inbound(self, pdu, peer)
            if pdu is None:
                return
        handler = find_handler(self, pdu.ptype, space="ptype")
        if handler is not None:
            handler(pdu)

    @on_ptype(pdutypes.T_RESPONSE)
    def _on_response(self, pdu: Pdu) -> None:
        future = self._pending_rpcs.pop(pdu.corr_id, None)
        if future is not None and not future.done:
            future.resolve(pdu.payload)

    @on_ptype(pdutypes.T_NO_ROUTE)
    def _on_no_route(self, pdu: Pdu) -> None:
        future = self._pending_rpcs.pop(pdu.corr_id, None)
        if future is not None and not future.done:
            unreachable = GdpName(pdu.payload["unreachable"])
            future.fail(RoutingError(f"no route to {unreachable.human()}"))

    @on_ptype(pdutypes.T_DATA)
    def _handle_request(self, pdu: Pdu) -> None:
        try:
            result = self.on_request(pdu)
        except Exception as exc:  # noqa: BLE001 — surfaced to the caller
            result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if result is None:
            return

        def reply(payload: Any) -> None:
            try:
                self.send_pdu(pdu.response(pdutypes.T_RESPONSE, payload))
            except WireFormatError as exc:
                # A reply too large to frame must not escape the delivery
                # path: the requester gets a short refusal, not a hang.
                self.send_pdu(pdu.response(
                    pdutypes.T_RESPONSE,
                    {"ok": False, "error": f"reply not sent: {exc}"},
                ))

        if isinstance(result, Future):
            result.add_callback(
                lambda fut: reply(
                    fut.result()
                    if fut._error is None
                    else {"ok": False, "error": str(fut._error)}
                )
            )
        else:
            reply(result)

    # -- overridable hooks --------------------------------------------------

    def on_request(self, pdu: Pdu) -> Any:
        """Handle an application request; return the response payload, a
        Future of it, or None for fire-and-forget."""
        return {"ok": False, "error": "endpoint does not serve requests"}

    @on_ptype(pdutypes.T_PUSH)
    def on_push(self, pdu: Pdu) -> None:
        """Handle a server push (subscriptions)."""

    @on_ptype(pdutypes.T_SYNC)
    def on_sync(self, pdu: Pdu) -> None:
        """Handle server-to-server anti-entropy traffic."""
