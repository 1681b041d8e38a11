"""Web gateway CAAPI (§VIII): GDP access for legacy clients.

The Berkeley deployment ran "web gateways using REST and websockets" so
browsers and plain HTTP tooling could reach capsules without speaking
the GDP protocol.  This module reproduces that boundary: a
:class:`GatewayService` is a GDP endpoint that accepts *HTTP-shaped*
requests (method + path + body dicts standing in for REST) from
non-GDP nodes attached to it, performs fully verified GDP operations on
their behalf, and returns JSON-shaped responses.  "Websocket" push is a
persistent legacy-node registration fed from a GDP subscription.

The trust trade-off is the real one: a legacy client trusts its gateway
(exactly as a browser trusts its TLS terminator); the gateway itself
trusts nothing — every record it relays was proof-checked first, so a
compromised *infrastructure* still cannot feed garbage through an
honest gateway.

Routes:

====================================  ==================================
``GET  /capsule/<hex>/record/<n>``    verified single-record read
``GET  /capsule/<hex>/latest``        verified newest record
``GET  /capsule/<hex>/range/<a>/<b>`` verified range read
``GET  /capsule/<hex>/metadata``      capsule metadata (verified)
``WS   /capsule/<hex>/subscribe``     verified live push to the client
====================================  ==================================
"""

from __future__ import annotations

from typing import Any, Generator

from repro.caapi.commit_service import CommitClient
from repro.client.client import GdpClient
from repro.errors import CommitConflictError, GdpError
from repro.naming.names import GdpName
from repro.runtime.dispatch import handles, resolve_route
from repro.runtime.network import Network, Node

__all__ = ["GatewayService", "LegacyHttpClient"]


class GatewayService(GdpClient):
    """A GDP client that serves HTTP-shaped requests from legacy nodes.

    Legacy nodes attach with ordinary links and send
    ``{"method", "path", "reply_to"}`` dicts; responses are
    ``{"status", "body"}`` dicts.  Subscriptions push
    ``{"event": "record", ...}`` frames.
    """

    def __init__(self, network: Network, node_id: str, **kwargs):
        super().__init__(network, node_id, **kwargs)
        self._ws_subscribers: dict[GdpName, list[Node]] = {}
        self._commit: CommitClient | None = None
        metrics = self.metrics
        self._c_http_ok = metrics.counter("gateway.http_ok")
        self._c_http_errors = metrics.counter("gateway.http_errors")
        self._c_pushes = metrics.counter("gateway.pushes")
        self._c_commits = metrics.counter("gateway.commits")

    def attach_commit(self, commit: CommitClient) -> None:
        """Expose a commit plane to legacy clients via
        ``POST /commit/submit/<key>`` (body: ``{"data_hex", and optional
        "expect_seqno"}``).  Submissions are signed with the *gateway's*
        key — the legacy client trusts its terminator, exactly as for
        reads — so the gateway's key must be on the shards' write ACL."""
        self._commit = commit

    # -- legacy-side transport ------------------------------------------------

    def receive(self, message: Any, sender: Node, link: Any) -> None:
        """Inbound message dispatch (overrides the base handler)."""
        if isinstance(message, dict) and "method" in message:
            self.ctx.spawn(
                self._serve_http(message, sender),
                name=f"gateway:{message.get('path')}",
            )
            return
        super().receive(message, sender, link)

    def _reply(self, client: Node, request: dict, status: int, body: Any) -> None:
        response = {
            "id": request.get("id"),
            "status": status,
            "body": body,
        }
        if status == 200:
            self._c_http_ok.inc()
        else:
            self._c_http_errors.inc()
        self.send(client, response, 200 + len(repr(body)))

    # -- request routing --------------------------------------------------------

    def _serve_http(self, request: dict, client: Node) -> Generator:
        """Route an HTTP-shaped request through the ``"http"`` dispatch
        space: routes are keyed ``"<METHOD> <leaf>"`` and declare their
        expected path arity in route metadata; trailing path segments
        become integer arguments."""
        method = request.get("method", "GET")
        parts = [p for p in str(request.get("path", "")).split("/") if p]
        try:
            if parts and parts[0] == "commit":
                yield from self._serve_commit(client, request, method, parts)
                return
            if len(parts) >= 2 and parts[0] == "capsule":
                name = GdpName.from_hex(parts[1])
                route = resolve_route(self, method, parts[2:])
                if route is not None:
                    handler, extra = route
                    yield from handler(client, request, name, *extra)
                    return
            self._reply(client, request, 404, {"error": "no such route"})
        except (GdpError, ValueError) as exc:
            self._reply(
                client, request, 502,
                {"error": f"{type(exc).__name__}: {exc}"},
            )

    def _serve_commit(
        self, client: Node, request: dict, method: str, parts: list
    ) -> Generator:
        """``POST /commit/submit/<key...>`` — submit through the
        attached commit plane (409 on a CAS conflict, carrying the
        winning seqno so the legacy client can rebase)."""
        if self._commit is None:
            self._reply(
                client, request, 404, {"error": "no commit plane attached"}
            )
            return
        if method != "POST" or len(parts) < 2 or parts[1] != "submit":
            self._reply(client, request, 404, {"error": "no such route"})
            return
        key = "/".join(parts[2:]) or None
        body = request.get("body") or {}
        data = bytes.fromhex(str(body.get("data_hex", "")))
        expect = body.get("expect_seqno")
        try:
            receipt = yield from self._commit.submit(
                data, key=key, expect_seqno=expect
            )
        except CommitConflictError as exc:
            self._reply(
                client, request, 409,
                {
                    "conflict": True,
                    "key": exc.key,
                    "winning_seqno": exc.winning_seqno,
                    "expected": exc.expected,
                },
            )
            return
        self._c_commits.inc()
        self._reply(
            client, request, 200,
            {
                "seqno": receipt.seqno,
                "shard": receipt.shard,
                "acks": receipt.acks,
            },
        )

    # -- handlers ---------------------------------------------------------------

    @staticmethod
    def _record_json(record) -> dict:
        return {
            "seqno": record.seqno,
            "payload_hex": record.payload.hex(),
            "digest_hex": record.digest.hex(),
        }

    @handles("http", "GET record", meta={"arity": 2})
    def _get_record(self, client, request, name, seqno) -> Generator:
        result = yield from self.read(name, seqno)
        self._reply(client, request, 200, self._record_json(result.record))

    @handles("http", "GET latest", meta={"arity": 1})
    def _get_latest(self, client, request, name) -> Generator:
        result = yield from self.read_latest(name)
        if result is None:
            self._reply(client, request, 200, {"empty": True})
        else:
            self._reply(client, request, 200, self._record_json(result.record))

    @handles("http", "GET range", meta={"arity": 3})
    def _get_range(self, client, request, name, first, last) -> Generator:
        result = yield from self.read_range(name, first, last)
        self._reply(
            client, request, 200,
            {"records": [self._record_json(r) for r in result.records]},
        )

    @handles("http", "GET metadata", meta={"arity": 1})
    def _get_metadata(self, client, request, name) -> Generator:
        metadata = yield from self.fetch_metadata(name)
        properties = {
            key: (value.hex() if isinstance(value, bytes) else value)
            for key, value in metadata.properties.items()
        }
        self._reply(
            client, request, 200,
            {"kind": metadata.kind, "properties": properties},
        )

    @handles("http", "WS subscribe", meta={"arity": 1})
    def _subscribe(self, client, request, name) -> Generator:
        subscribers = self._ws_subscribers.setdefault(name, [])
        first_for_capsule = not subscribers
        subscribers.append(client)
        if first_for_capsule:
            def fan_out(record, heartbeat, _name=name):
                frame = {"event": "record", **self._record_json(record)}
                for legacy in self._ws_subscribers.get(_name, []):
                    self._c_pushes.inc()
                    self.send(legacy, dict(frame), 200 + len(record.payload) * 2)

            yield from super().subscribe(name, fan_out)
        self._reply(client, request, 200, {"subscribed": True})


class LegacyHttpClient(Node):
    """A plain node that speaks only the HTTP-shaped dialect."""

    def __init__(self, network: Network, node_id: str):
        super().__init__(network, node_id)
        self.gateway: GatewayService | None = None
        self._pending: dict[int, Any] = {}
        self._next_id = 0
        self.events: list[dict] = []

    def connect_to(self, gateway: GatewayService, **link_kwargs) -> None:
        """Attach to a gateway over a plain link."""
        defaults = {"latency": 0.002, "bandwidth": 12_500_000.0}
        defaults.update(link_kwargs)
        self.network.connect(self, gateway, **defaults)
        self.gateway = gateway

    def request(self, method: str, path: str, body: Any = None):
        """Send a request; returns a future of ``{"status", "body"}``."""
        if self.gateway is None:
            raise RuntimeError("not connected to a gateway")
        self._next_id += 1
        request_id = self._next_id
        future = self.ctx.future()
        self._pending[request_id] = future
        message = {"method": method, "path": path, "id": request_id}
        if body is not None:
            message["body"] = body
        self.send(
            self.gateway, message, 200 + len(path) + len(repr(body or ""))
        )
        return self.ctx.timeout(future, 30.0, f"{method} {path}")

    def receive(self, message: Any, sender: Node, link: Any) -> None:
        """Inbound message dispatch (overrides the base handler)."""
        if not isinstance(message, dict):
            return
        if message.get("event"):
            self.events.append(message)
            return
        future = self._pending.pop(message.get("id"), None)
        if future is not None and not future.done:
            future.resolve(message)
