"""The GDP client library (§VIII "GDP library").

"The GDP library takes care of connecting to a GDP-router ... advertise
the desired names, and provide the desired interface of a DataCapsule as
an object that can be appended to, read from, or subscribed to."

:class:`GdpClient` adds, on top of the raw :class:`Endpoint` RPC:

- response verification, every reply through :meth:`GdpClient.accept`
  (signature or HMAC secure responses, delegation chains checked
  against the capsule name being asked about);
- proof verification via a per-capsule :class:`VerifyingReader`;
- the writer side (:class:`ClientWriter`), which serializes appends
  locally and talks the durability (acks) protocol;
- verified subscriptions with an application callback.

Every read returns a :class:`~repro.client.results.ReadResult` and every
append a :class:`~repro.client.results.AppendReceipt` — uniform
envelopes carrying the verified records plus the proof, the answering
server, and the observed round-trip latency (see
``docs/CLIENT_API.md``).  All network-facing methods take a consistent
``timeout=`` keyword and writers a consistent ``acks=`` override.

All network-facing methods are *generator coroutines*: call them inside
a simulation process with ``yield from`` (or via ``sim.run_process``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator

from repro.capsule.capsule import run_from_wire, run_wire
from repro.capsule.heartbeat import Heartbeat
from repro.capsule.proofs import RangeProof
from repro.capsule.reader import VerifyingReader
from repro.capsule.records import Record
from repro.capsule.writer import CapsuleWriter, QuasiWriter
from repro.client.failover import FailoverPolicy, Subscription
from repro.client.results import AppendReceipt, ReadResult
from repro.crypto.hmac_session import Handshake, SessionKey
from repro.crypto.keys import SigningKey
from repro.errors import (
    CapsuleError,
    DurabilityError,
    GdpError,
    IntegrityError,
    RoutingError,
    TimeoutError_,
)
from repro.naming.metadata import MODE_QSW, Metadata, make_client_metadata
from repro.naming.names import GdpName
from repro.routing.endpoint import Endpoint
from repro.routing.pdu import Pdu
from repro.server.secure import open_response
from repro.runtime.network import Network

__all__ = [
    "GdpClient",
    "ClientWriter",
    "ReadResult",
    "AppendReceipt",
    "FailoverPolicy",
]


class GdpClient(Endpoint):
    """A named GDP client endpoint with verified capsule operations."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        *,
        key: SigningKey | None = None,
        failover: FailoverPolicy | None = None,
    ):
        key = key or SigningKey.from_seed(b"client:" + node_id.encode())
        metadata = make_client_metadata(key, extra={"node_id": node_id})
        super().__init__(network, node_id, metadata, key)
        #: retry/backoff envelope for anycast ops hitting dead routes
        self.failover = failover or FailoverPolicy()
        #: corr_id -> send time, until the reply is attributed
        self._sent: dict[int, float] = {}
        #: server -> its (ok, errors, latency) QoS instruments
        self._providers: dict[GdpName, tuple] = {}
        self._c_timeouts = self.metrics.counter("qos.timeouts")
        self._c_resubscribes = self.metrics.counter("client.resubscribed")
        self._c_pushes = self.metrics.counter("client.pushes_delivered")
        self._c_duplicates = self.metrics.counter("client.duplicate_pushes")
        self.readers: dict[GdpName, VerifyingReader] = {}
        self._sessions: dict[GdpName, SessionKey] = {}
        #: capsule -> replica that answered our last op (the client-side
        #: resolution cache failover invalidates)
        self._resolutions: dict[GdpName, GdpName] = {}
        self._subscriptions: dict[GdpName, Subscription] = {}

    # -- request plumbing -------------------------------------------------

    def request(
        self,
        dst: GdpName,
        payload: Any,
        *,
        timeout: float | None = 30.0,
    ) -> tuple[int, Any]:
        """:meth:`Endpoint.request`, its send time kept until
        :meth:`accept` charges the reply's latency to its signer."""
        corr_id, future = super().request(dst, payload, timeout=timeout)
        self._sent[corr_id] = self.ctx.now
        return corr_id, future

    def _expired(self, corr_id: int) -> None:
        super()._expired(corr_id)
        self._sent.pop(corr_id, None)
        self._c_timeouts.inc()

    def _on_no_route(self, pdu: Pdu) -> None:
        self._sent.pop(pdu.corr_id, None)
        super()._on_no_route(pdu)

    def _attribute(self, corr_id: int, server: GdpName, ok: bool) -> None:
        """Charge reply *corr_id* to *server*, its verified signer: an
        ok or error count, and its latency when we timed the request."""
        instruments = self._providers.get(server)
        if instruments is None:
            prefix = f"qos.{server.hex()}."
            instruments = self._providers[server] = (
                self.metrics.counter(prefix + "ok"),
                self.metrics.counter(prefix + "errors"),
                self.metrics.histogram(prefix + "latency"),
            )
        instruments[0 if ok else 1].inc()
        sent = self._sent.pop(corr_id, None)
        if sent is not None:
            instruments[2].observe(self.ctx.now - sent)

    def accept(
        self,
        wrapped: Any,
        corr_id: int,
        *,
        capsule: GdpName | None = None,
        server: GdpName | None = None,
        resolve: bool = False,
    ) -> tuple[dict, GdpName | None]:
        """Take a reply to request *corr_id* through the one verifier,
        :func:`~repro.server.secure.open_response`; returns ``(body,
        server)`` for an ``ok`` body.  A verified refusal raises
        :class:`CapsuleError` (:class:`DurabilityError`: acks not met).

        Every verified reply, signed or session-MACed, is attributed to
        its server in the ``qos.*`` instruments.  With *resolve*, the verified
        server (of a refusal too) becomes *capsule*'s cached resolution."""
        body, signer = open_response(
            wrapped, requester=self.name, corr_id=corr_id, capsule=capsule,
            server=server, session=self._sessions.get(server), now=self.ctx.now,
        )
        if resolve:
            self._resolutions[capsule] = signer
        self._attribute(corr_id, signer, bool(body.get("ok")))
        if not body.get("ok"):
            error = str(body.get("error", "server refused"))
            raise (DurabilityError if "durability" in error else CapsuleError)(error)
        return body, signer

    def ask(
        self,
        server: GdpName,
        payload: dict,
        *,
        capsule: GdpName | None = None,
        timeout: float | None = 30.0,
    ) -> Generator:
        """One op to a named *server*, its reply taken through
        :meth:`accept` (which checks *server* signed it); returns
        ``(body, server)``."""
        corr_id, future = self.request(server, payload, timeout=timeout)
        return self.accept((yield future), corr_id, capsule=capsule, server=server)

    def failover_request(
        self,
        capsule: GdpName,
        payload: Any,
        *,
        timeout: float | None = 30.0,
        policy: FailoverPolicy | None = None,
    ) -> Generator:
        """An anycast op with replica failover: a ``T_NO_ROUTE`` bounce
        or RPC timeout invalidates the cached resolution (ours *and*
        the router's, via ``T_ROUTE_INVALIDATE``), backs off, and
        retries — the name re-resolves through the hierarchy and
        anycast lands on the next replica.  Returns the verified
        ``(body, server)``; server refusals and verification failures
        are never retried (a different replica would refuse too, and
        hammering on an integrity failure helps an attacker).  Only a
        verified answer, a signed refusal included, updates the
        resolution cache: a forged one must
        not aim a later route-failure report at an innocent replica.
        """
        policy = policy or self.failover
        last_error: GdpError | None = None
        for attempt in range(max(policy.attempts, 1)):
            corr_id, future = self.request(
                capsule, dict(payload), timeout=timeout
            )
            try:
                wrapped = yield future
            except (RoutingError, TimeoutError_) as exc:
                last_error = exc
                self.report_route_failure(
                    capsule, self._resolutions.pop(capsule, None)
                )
                if attempt + 1 < max(policy.attempts, 1):
                    yield policy.delay(attempt)
                continue
            return self.accept(wrapped, corr_id, capsule=capsule, resolve=True)
        assert last_error is not None
        raise last_error

    def _reader(self, capsule: GdpName) -> VerifyingReader:
        if capsule not in self.readers:
            self.readers[capsule] = VerifyingReader(capsule)
        return self.readers[capsule]

    # -- metadata bootstrap ------------------------------------------------

    def fetch_metadata(self, capsule: GdpName) -> Generator:
        """Fetch + verify capsule metadata (the reader's trust anchor);
        returns the verified :class:`Metadata`."""
        reader = self._reader(capsule)
        if reader._capsule is not None:
            return reader.capsule.metadata
        body, _ = yield from self.failover_request(
            capsule, {"op": "metadata", "capsule": capsule.raw}
        )
        metadata = Metadata.from_wire(body["metadata"])
        reader.accept_metadata(metadata)
        return metadata

    # -- reads --------------------------------------------------------------

    def _read(
        self,
        capsule: GdpName,
        first: int | None,
        last: int | None,
        *,
        timeout: float | None,
        server: GdpName | None = None,
    ) -> Generator:
        """The one read: ``read_range`` requests until ``first..last`` is
        covered (a server answers a long range with a byte-capped
        prefix), each piece checked to continue the range — so no reply
        can answer with another record — and verified against its own
        range proof.  ``last`` None reads through the tip the first
        reply's proof is anchored at, checked for freshness unless
        *server* names the one replica to ask; ``first`` None is
        ``last``.  Returns a :class:`ReadResult`, or None when an
        open-ended read finds no heartbeat."""
        start = self.ctx.now
        yield from self.fetch_metadata(capsule)
        reader = self._reader(capsule)
        records: list[Record] = []
        while True:
            request = {"op": "read_range", "capsule": capsule.raw}
            if first is not None:
                request["first"] = first
            if last is not None:
                request["last"] = last
            if server is None:
                body, answered = yield from self.failover_request(
                    capsule, request, timeout=timeout
                )
            else:
                body, answered = yield from self.ask(
                    server, request, capsule=capsule, timeout=timeout
                )
            piece = [Record.from_wire(capsule, w) for w in body["records"]]
            if not piece and last is None:
                return None  # no heartbeat: nothing written yet
            proof = RangeProof.from_wire(body.get("proof"))
            fresh = last is None and server is None
            if last is None:
                last = proof.position.heartbeat.seqno
            if first is None:
                first = last
            if not piece or piece[0].seqno != first or piece[-1].seqno > last:
                raise IntegrityError(
                    f"range reply does not continue [{first}, {last}]"
                )
            if fresh:
                reader.check_freshness(proof.position.heartbeat)
            piece = reader.accept_range(piece, proof)
            records += piece
            first = piece[-1].seqno + 1
            if first > last:
                return ReadResult(
                    records, proof=proof, server=answered, rtt=self.ctx.now - start
                )

    def read(
        self, capsule: GdpName, seqno: int, *, timeout: float | None = 30.0
    ) -> Generator:
        """Read one record — a one-record range; returns a
        :class:`ReadResult` (``.record`` is the verified record)."""
        return (yield from self._read(capsule, seqno, seqno, timeout=timeout))

    def read_range(
        self,
        capsule: GdpName,
        first: int,
        last: int | None = None,
        *,
        timeout: float | None = 120.0,
    ) -> Generator:
        """Read a verified contiguous range, through the tip when *last*
        is None; returns a :class:`ReadResult` whose ``.records`` covers
        the range (None for an open range of a capsule not yet written)."""
        return (yield from self._read(capsule, first, last, timeout=timeout))

    def read_latest(
        self, capsule: GdpName, *, timeout: float | None = 30.0
    ) -> Generator:
        """Read the newest record — the range of one at the tip; returns
        a :class:`ReadResult` (or None for an empty capsule)."""
        return (yield from self._read(capsule, None, None, timeout=timeout))

    def read_latest_strict(
        self,
        capsule: GdpName,
        servers: "list[GdpName]",
        *,
        timeout: float | None = 15.0,
    ) -> Generator:
        """Strict-consistency read (§VI-C): query *every* replica by
        server name, adopt the newest verified state.

        "A reader interested in the most up-to-date state of a
        DataCapsule can query all replicas ... and achieve read
        semantics similar to that of strict consistency at the risk of
        losing fault tolerance; such a reader must block if any single
        replica is unavailable."  Accordingly this raises (rather than
        degrading) if any listed replica does not answer within the
        per-replica *timeout*.  Returns a :class:`ReadResult` (the
        ``server`` field names the replica whose answer won) or None
        when every replica reports an empty capsule.
        """
        if not servers:
            raise CapsuleError("strict read needs the replica list")
        start = self.ctx.now
        yield from self.fetch_metadata(capsule)
        reads = [
            self.ctx.spawn(
                self._read(capsule, None, None, timeout=timeout, server=server)
            )
            for server in servers
        ]
        best: ReadResult | None = None
        for read in reads:
            # Any failure here (timeout, no-route, refusal) propagates:
            # strict mode must not silently drop a replica's answer.
            result = yield read.completion
            if result is not None and (
                best is None or result.record.seqno > best.record.seqno
            ):
                best = result
        if best is not None:
            best.rtt = self.ctx.now - start
        return best

    # -- writes ---------------------------------------------------------------

    def open_writer(
        self,
        metadata: Metadata,
        writer_key: SigningKey,
        *,
        acks: str = "any",
        state_path: str | None = None,
    ) -> "ClientWriter":
        """Open the (strict or quasi, per metadata) single-writer handle
        for a capsule this client holds the writer key of.  It keeps no
        replica: the records it mints belong to the caller once acked."""
        quasi = metadata.properties.get("writer_mode") == MODE_QSW
        writer = (QuasiWriter if quasi else CapsuleWriter)(
            metadata, writer_key, state_path=state_path,
            clock=lambda: int(self.ctx.now * 1000),
        )
        return ClientWriter(self, writer, acks=acks)

    # -- subscriptions ----------------------------------------------------------

    def subscribe(
        self,
        capsule: GdpName,
        callback: Callable[[Record, Heartbeat], None],
        *,
        subgrant: "object | None" = None,
        timeout: float | None = 30.0,
    ) -> Generator:
        """Register for future records; *callback* fires for each
        verified pushed record.  Returns the first future seqno.

        *subgrant* is the owner-issued subscription credential required
        by capsules with ``restricted_subscribe`` metadata (§VII fn. 9).
        """
        yield from self.fetch_metadata(capsule)
        sub = Subscription(capsule, callback, subgrant=subgrant)
        self._subscriptions[capsule] = sub
        return (yield from self._resubscribe(capsule, sub, timeout=timeout))

    def _resubscribe(
        self,
        capsule: GdpName,
        sub: Subscription,
        *,
        timeout: float | None = 30.0,
    ) -> Generator:
        """(Re-)run the subscribe handshake — anycast picks a live
        replica — and backfill any records appended between what the old
        replica delivered and where the new one's push stream starts
        (duplicate suppression makes overlap harmless; gaps the fleet
        lost entirely are skipped).  Returns the new ``from_seqno``."""
        payload: dict = {"op": "subscribe", "capsule": capsule.raw}
        if sub.subgrant is not None:
            payload["subgrant"] = sub.subgrant.to_wire()
        body, sub.server = yield from self.failover_request(
            capsule, payload, timeout=timeout
        )
        from_seqno = body["from_seqno"]
        if sub.last_delivered is None:
            # Initial subscribe: only *future* records are promised.
            sub.last_delivered = from_seqno - 1
            return from_seqno
        self._c_resubscribes.inc()
        for seqno in range(sub.last_delivered + 1, from_seqno):
            try:
                result = yield from self.read(capsule, seqno)
            except GdpError:
                continue  # a hole the fleet lost: tolerated, not fatal
            self._deliver(sub, result.record, result.proof.position.heartbeat)
        return from_seqno

    def _deliver(self, sub: Subscription, record: Record, heartbeat) -> None:
        """Hand *record* to *sub*'s callback unless its seqno is at or
        below the last one delivered (a duplicate)."""
        if sub.last_delivered is not None and record.seqno <= sub.last_delivered:
            self._c_duplicates.inc()
            return
        sub.last_delivered = max(sub.last_delivered or 0, record.seqno)
        self._c_pushes.inc()
        sub.callback(record, heartbeat)

    def resync_subscriptions(self) -> Generator:
        """Re-subscribe every active subscription (after a heal, or any
        time the serving replicas are suspect); returns how many were
        resynced.  Unreachable capsules are left registered — the
        subscription monitor keeps retrying them."""
        resynced = 0
        for capsule, sub in list(self._subscriptions.items()):
            try:
                yield from self._resubscribe(capsule, sub)
                resynced += 1
            except GdpError:
                continue
        return resynced

    def on_push(self, pdu: Pdu) -> None:
        """Handle a pushed run: verified with the checks a replica admits
        it under, then delivered in seqno order (duplicate-suppressed)."""
        try:
            capsule_name = GdpName(pdu.payload["capsule"])
        except (KeyError, TypeError, GdpError):
            return
        sub = self._subscriptions.get(capsule_name)
        if sub is None:
            return
        reader = self._reader(capsule_name)
        try:
            records, heartbeat = run_from_wire(capsule_name, pdu.payload)
            reader.accept_run(records, heartbeat)
            sub.server = pdu.src
            # Re-subscribing to a second replica overlaps its push
            # stream with the first's: suppress anything already
            # delivered so the application sees each record once.
            for record in sorted(records, key=lambda r: r.seqno):
                self._deliver(sub, record, heartbeat)
        except GdpError:
            # Forged or corrupt push from the network: drop, never
            # surface unverified data to the application.
            return

    # -- HMAC session fast path ---------------------------------------------

    def establish_session(self, server: GdpName) -> Generator:
        """One-time authenticated handshake with a *specific server*
        (sessions are per-server; capsule-name anycast keeps using
        signatures since any replica may answer)."""
        handshake = Handshake(self.key)
        corr_id, future = self.request(
            server,
            {
                "op": "session",
                "client_key": self.key.public.to_bytes(),
                "offer": handshake.offer(),
            },
        )
        wrapped = yield future
        body, _ = self.accept(wrapped, corr_id, server=server)
        # The opener checked *server* signed this reply with the key in
        # the metadata it carries: that key authenticates the offer.
        server_metadata = Metadata.from_wire(wrapped["auth"]["server_metadata"])
        session = handshake.finish(
            body["offer"], server_metadata.self_key, initiator=True
        )
        self._sessions[server] = session
        return session

    def session_request(
        self, server: GdpName, payload: dict, *, timeout: float | None = 30.0
    ) -> Generator:
        """An op against a specific server over the established HMAC
        session; returns the verified body."""
        if server not in self._sessions:
            raise IntegrityError(f"no session with {server.human()}")
        body, _ = yield from self.ask(server, payload, timeout=timeout)
        return body


class ClientWriter:
    """The writer-side handle: local serialization + networked appends."""

    def __init__(self, client: GdpClient, writer: CapsuleWriter, *, acks: str):
        self.client = client
        self.writer = writer
        self.acks = acks
        self.capsule_name = writer.name

    @property
    def last_seqno(self) -> int:
        """The last locally minted sequence number."""
        return self.writer.last_seqno

    def resume(self, *, timeout: float | None = 30.0) -> Generator:
        """QSW crash recovery: verified reads of the tip (freshness-checked)
        and of each record the strategy still needs, then resume from
        them; returns the tip.  A stale tip makes the next append a
        branch (§VI-C)."""
        if not isinstance(self.writer, QuasiWriter):
            raise CapsuleError("only a quasi-single-writer capsule resumes")
        latest = yield from self.client.read_latest(self.capsule_name, timeout=timeout)
        if latest is None:
            raise CapsuleError("nothing to resume from: the capsule is empty")
        tip, needed = latest.record, []
        for seqno in range(1, tip.seqno):
            if self.writer.strategy.still_needed(seqno, tip.seqno):
                read = self.client.read(self.capsule_name, seqno, timeout=timeout)
                needed += (yield from read).records
        self.writer.resume_from_tip(tip, needed)
        return tip

    def _request_run(
        self,
        records: list[Record],
        heartbeat: Heartbeat,
        acks: str | None,
        timeout: float | None,
    ) -> tuple[int, Any]:
        """Send one run as ``append_batch`` — the one write request this
        writer builds; returns ``(corr_id, future)``."""
        payload = {"op": "append_batch", **run_wire(records, heartbeat)}
        payload["acks"] = acks or self.acks
        return self.client.request(self.capsule_name, payload, timeout=timeout)

    def append(
        self,
        payload: bytes,
        *,
        acks: str | None = None,
        timeout: float | None = 60.0,
    ) -> Generator:
        """Append one record (a one-record run); returns an
        :class:`AppendReceipt` (its ``.record``/``.acks``/``.server``/
        ``.rtt`` fields).  Raises :class:`DurabilityError` if the
        requested durability could not be met (the paper's "writer must
        block and retry")."""
        start = self.client.ctx.now
        record, heartbeat = self.writer.append(payload)
        corr_id, future = self._request_run([record], heartbeat, acks, timeout)
        body, server = self.client.accept(
            (yield future), corr_id, capsule=self.capsule_name
        )
        return AppendReceipt(
            [record],
            acks=body.get("acks", 1),
            server=server,
            rtt=self.client.ctx.now - start,
            batches=1,
        )

    def append_stream(
        self,
        payloads: "list[bytes]",
        *,
        acks: str | None = None,
        window: int = 8,
        batch_records: int = 32,
        batch_bytes: int = 64 * 1024,
        timeout: float | None = 120.0,
    ) -> Generator:
        """Batched, pipelined appends: records are minted locally in
        batches of up to *batch_records* records / *batch_bytes* payload
        bytes, each batch travels as one multi-record ``append_batch``
        PDU signed by a single tip heartbeat, and up to *window* batch
        PDUs stay in flight with out-of-order acknowledgment tracking —
        the event-driven style of the paper's C library, which keeps a
        fat link full instead of paying one RTT (and one signature) per
        record.

        Returns an :class:`AppendReceipt` covering every record
        (``.acks`` is the minimum acknowledgment count over the
        batches).  Raises on the first failed batch (later
        batches may still be in flight; anti-entropy reconciles
        whatever landed)."""
        if window < 1:
            raise CapsuleError("window must be >= 1")
        if batch_records < 1:
            raise CapsuleError("batch_records must be >= 1")
        start = self.client.ctx.now
        if not payloads:
            return AppendReceipt([], acks=0, batches=0)
        chunks: list[list[bytes]] = []
        current: list[bytes] = []
        current_bytes = 0
        for payload in payloads:
            current.append(payload)
            current_bytes += len(payload)
            if len(current) >= batch_records or current_bytes >= batch_bytes:
                chunks.append(current)
                current, current_bytes = [], 0
        if current:
            chunks.append(current)
        # The writer is still the single serialization point: every
        # record is minted before dispatch.
        minted = [self.writer.append_batch(chunk) for chunk in chunks]
        all_records = [record for records, _ in minted for record in records]

        completed: deque = deque()
        state: dict = {"waiter": None}

        def _on_done(fut, corr_id):
            completed.append((corr_id, fut))
            waiter = state["waiter"]
            if waiter is not None and not waiter.done:
                state["waiter"] = None
                waiter.resolve(None)

        index = 0
        inflight = 0
        min_acks: int | None = None
        last_server: GdpName | None = None
        while index < len(minted) or inflight:
            while index < len(minted) and inflight < window:
                corr_id, future = self._request_run(*minted[index], acks, timeout)
                future.add_callback(
                    lambda fut, corr_id=corr_id: _on_done(fut, corr_id)
                )
                inflight += 1
                index += 1
            if not completed:
                waiter = self.client.ctx.future()
                state["waiter"] = waiter
                yield waiter
                continue
            corr_id, fut = completed.popleft()
            inflight -= 1
            wrapped = fut.result()  # re-raises timeout / transport errors
            body, last_server = self.client.accept(
                wrapped, corr_id, capsule=self.capsule_name
            )
            batch_acks = body.get("acks", 1)
            min_acks = (
                batch_acks if min_acks is None else min(min_acks, batch_acks)
            )
        return AppendReceipt(
            all_records,
            acks=min_acks if min_acks is not None else 0,
            server=last_server,
            rtt=self.client.ctx.now - start,
            batches=len(minted),
        )
