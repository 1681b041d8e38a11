"""DataCapsule-servers: durable, available, *untrusted* storage (§IV, §VI).

"The task of DataCapsule-servers is to make information durable and
available to the appropriate readers while maintaining the integrity of
data."  A server hosts capsule replicas it holds AdCerts for, answers
reads with integrity proofs, collects durability acknowledgments from
sibling replicas, pushes subscription updates, and participates in
leaderless anti-entropy synchronization.

The server *verifies what it stores* (writer signatures, pointer shape)
— not because clients trust it, but because an honest provider protects
itself: storing a forged record would make it serve failing proofs and
look malicious ("it is important to ensure that an honest infrastructure
provider can't be framed by an adversary", §III-D).

A replica holds record headers; its payloads live in its storage
backend alone, and each one read back is checked against its header
before it is served (a failure counts in ``server.storage.corrupt_frames``
and a read then refetches the record from a sibling).

Request ops (payload ``{"op": ..., ...}`` over T_DATA PDUs):

=============  =========================================================
``host``       apply an owner-signed placement (metadata + this
               server's delegation chain + the placement): host, keep
               or retire the replica (see ``host_capsule``)
``append_batch``  a writer's run — records under the heartbeat over the
               tip; ``acks`` selects the durability policy
``replicate_batch``  the same run, sibling to sibling
               (both write ops: one ``DataCapsule.admit`` of the run,
               one ``append_entries``, one push of the run per subscriber)
``read_range`` the one read op: records ``first..last`` + range proof;
               ``last`` omitted reads through the tip, ``first``
               omitted is ``last`` (a point read is a range of one)
``metadata``   capsule metadata + this server's delegation chain
``subscribe``  register the requester for future pushes
``unsubscribe``
``session``    authenticated ECDH handshake -> HMAC fast path
``sync_root`` / ``sync_nodes`` / ``sync_fetch_batch``
               Merkle-delta anti-entropy (see replication.py): fetched
               records go in through ``DataCapsule.admit_fetched``
=============  =========================================================
"""

from __future__ import annotations

from typing import Any, Generator

from repro.capsule.capsule import DataCapsule, run_from_wire, run_wire
from repro.capsule.heartbeat import Heartbeat
from repro.capsule.proofs import build_range_proof
from repro.capsule.records import Record
from repro.crypto.hmac_session import Handshake, SessionKey
from repro.crypto.keys import SigningKey, VerifyingKey
from repro.delegation.certs import Placement
from repro.delegation.chain import ServiceChain
from repro.errors import (
    AuthorizationError,
    CapsuleError,
    GdpError,
    RecordNotFoundError,
    StorageError,
)
from repro.naming.metadata import Metadata, make_server_metadata
from repro.naming.names import GdpName
from repro.routing import pdu as pdutypes
from repro.routing.endpoint import Endpoint
from repro.routing.pdu import Pdu, payload_size
from repro.runtime.dispatch import dispatch_op, op, opt
from repro.server.durability import AckPolicy
from repro.server.secure import mac_response, open_response, sign_response
from repro.server.storage import MemoryStore, StorageBackend, replay
from repro.runtime.context import Future
from repro.runtime.network import Network

__all__ = ["DataCapsuleServer", "HostedCapsule"]

#: how long the fronting server waits for sibling durability acks
REPLICATION_ACK_TIMEOUT = 10.0

#: bisection probes per sync_nodes request (bounds per-PDU work)
MAX_SYNC_RANGES = 64

#: default reply budget for sync_fetch_batch (bytes of records+heartbeats)
DEFAULT_SYNC_BATCH_BYTES = 64 * 1024

#: payload bytes one read_range reply carries (and the most a
#: sync_fetch_batch may ask for) — half a transport frame
#: (``DEFAULT_MAX_FRAME``); record framing may take a quarter more, which
#: leaves the last quarter to the proof and the signed envelope
MAX_RANGE_REPLY_BYTES = 8 * 1024 * 1024


class HostedCapsule:
    """A capsule replica this server is delegated for; its siblings are
    the other servers of the newest placement it applied."""

    __slots__ = ("capsule", "chain", "siblings", "subscribers")

    def __init__(self, capsule: DataCapsule, chain: ServiceChain):
        self.capsule = capsule
        self.chain = chain
        self.siblings: list[GdpName] = []
        self.subscribers: set[GdpName] = set()


class DataCapsuleServer(Endpoint):
    """One DataCapsule-server daemon."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        *,
        key: SigningKey | None = None,
        storage: StorageBackend | None = None,
        lease_ttl: float | None = None,
    ):
        key = key or SigningKey.from_seed(b"server:" + node_id.encode())
        metadata = make_server_metadata(
            key, key.public, extra={"node_id": node_id}
        )
        super().__init__(network, node_id, metadata, key, lease_ttl=lease_ttl)
        self.storage = storage if storage is not None else MemoryStore()
        self.hosted: dict[GdpName, HostedCapsule] = {}
        self._sessions: dict[GdpName, SessionKey] = {}
        # (client, corr_id) pairs whose response must stay signed even
        # though a session now exists (the session-establishment reply
        # itself: the client has no keys until it reads it).
        self._sign_anyway: set[tuple[GdpName, int]] = set()
        self.crashed = False
        #: last recover_from_storage() report: hosting records that
        #: failed re-verification, records replayed, frames the
        #: attestation rule refused, and stored frames that failed their
        #: CRC (the backend's ``corrupt_frame_skipped`` events)
        self.last_recovery: dict = {
            "hosting_refused": 0,
            "records": 0,
            "refused": 0,
            "corrupt_frames": 0,
        }
        #: drain state: a draining server refuses new data ops, finishes
        #: in-flight ones, and flushes storage before shutdown
        self.draining = False
        self._inflight = 0
        metrics = self.metrics
        self._h_drain_ms = metrics.histogram("server.drain_ms")
        self._c_appends = metrics.counter("server.appends")
        self._c_replications = metrics.counter("server.replications")
        self._c_reads = metrics.counter("server.reads")
        self._c_pushes = metrics.counter("server.pushes")
        self._c_sync_rounds = metrics.counter("server.sync_rounds")
        self._c_replies_refused = metrics.counter("server.replies_refused")
        self._c_corrupt_frames = metrics.counter("server.storage.corrupt_frames")

    @property
    def stats(self) -> dict:
        """Counter snapshot, keyed by the historical short names
        (registry names: ``server.appends`` etc.)."""
        return {
            "appends": self._c_appends.value,
            "replications": self._c_replications.value,
            "reads": self._c_reads.value,
            "pushes": self._c_pushes.value,
            "sync_rounds": self._c_sync_rounds.value,
        }

    # -- hosting lifecycle -------------------------------------------------

    def host_capsule(
        self,
        metadata: Metadata,
        chain: ServiceChain,
        placement: Placement | None = None,
    ) -> HostedCapsule | None:
        """Apply the owner's *placement* of a capsule — the one rule the
        ``host`` op goes through; without one (local set-up) host it as
        the only replica.  Returns the hosted replica, or None.

        A placement counts only if the capsule's owner signed it and it
        is newer than the one stored with the capsule, so a replay
        changes nothing, across restarts too.  One that names this
        server hosts the capsule (after verifying *chain*) or keeps the
        live replica, with the placement's other servers as siblings;
        one that omits it retires the replica.  The capsule's hosting
        record is stored before the change is applied; a placement-less
        host stores one only if none is.
        """
        name = metadata.name
        self._verify_hosting(metadata, chain, placement)
        stored = self.storage.load_hosting(name)
        held = stored and stored["placement"]
        if placement is not None and held and placement.version <= held["version"]:
            return self.hosted.get(name)
        if name in self.hosted:
            chain = self.hosted[name].chain
        if placement is not None or stored is None:
            self.storage.store_hosting(name, {
                "metadata": metadata.to_wire(),
                "chain": chain.to_wire(),
                "placement": None if placement is None else placement.to_wire(),
            })
        return self._apply_hosting(metadata, chain, placement)

    def _verify_hosting(
        self,
        metadata: Metadata,
        chain: ServiceChain,
        placement: Placement | None,
    ) -> None:
        """Raise unless the owner signed *placement* for this capsule
        and, if it would newly host the capsule here, *chain* delegates
        the capsule to this server."""
        name = metadata.name
        if placement is not None:
            if placement.capsule != name:
                raise CapsuleError("placement is for a different capsule")
            placement.verify(metadata.owner_key)
            if self.name not in placement.servers:
                return  # a retire needs no delegation
        if name in self.hosted:
            return
        chain.verify(now=self.ctx.now)
        if chain.server != self.name:
            raise CapsuleError("delegation chain is for a different server")
        if chain.capsule != name:
            raise CapsuleError("delegation chain is for a different capsule")

    def _apply_hosting(
        self,
        metadata: Metadata,
        chain: ServiceChain,
        placement: Placement | None,
    ) -> HostedCapsule | None:
        """Make the hosting table match a verified hosting record (the
        half the ``host`` op shares with recovery): host or keep the
        replica, or retire it — withdraw its route, drop its records."""
        name = metadata.name
        if placement is not None and self.name not in placement.servers:
            if self.hosted.pop(name, None) is not None and self._uplink is not None:
                self.withdraw([name])
            self.storage.drop_entries(name)
            return None
        hosted = self.hosted.get(name)
        if hosted is None:
            hosted = self.hosted[name] = HostedCapsule(DataCapsule(metadata), chain)
        if placement is not None:
            hosted.siblings = [s for s in placement.servers if s != self.name]
        return hosted

    def catalog_entries(self) -> list[dict]:
        """The advertisement catalog for every hosted capsule: what the
        boot advertisement and every re-advertisement carry (the live
        hosting table, not the catalog of the last handshake)."""
        return [
            {"chain": hosted.chain.to_wire()}
            for hosted in self.hosted.values()
        ]

    def crash(self) -> None:
        """Kill the process: stop responding and drop all in-memory
        session state (HMAC sessions, pending RPCs, subscriber lists
        survive only until :meth:`restart` wipes them).

        The storage backend is the durable medium and survives — it
        models the disk, not the process.  Crash is distinct from a
        network partition: a partitioned server keeps its sessions and
        resumes mid-conversation; a crashed one comes back amnesiac.
        """
        self.crashed = True
        self._sessions.clear()
        self._sign_anyway.clear()
        self._pending_rpcs.clear()
        # A handshake caught mid-flight dies with the process; leaving
        # it pending would block every post-restart re-advertisement.
        self.abandon_advertisement()

    def restart(self) -> None:
        """Come back up with exactly what the storage backend kept, as
        a fresh process over the same disk does: the hosting table goes
        with the rest of memory (subscriber sets too: §V's
        subscriptions are soft state) and :meth:`recover_from_storage`
        rebuilds it.  Anything acknowledged pre-crash was persisted by
        :meth:`_store_admitted`, so nothing durable is lost.
        """
        self.crashed = False
        self._sessions.clear()
        self._sign_anyway.clear()
        self.hosted.clear()
        self.recover_from_storage()
        # Routes lapsed (or are about to) with the advertisement lease
        # while we were down; re-advertise so the name heals promptly
        # instead of waiting for the next refresh tick.
        if self._uplink is not None:
            self._schedule_readvertise()

    def recover_from_storage(self) -> int:
        """Bring hosting state back from the backend — the one way it
        returns, for :meth:`restart` and a fresh process alike; returns
        how many records were recovered.

        Each stored capsule not already hosted gets its hosting record
        applied by the ``host`` op's rule, the placement signature and
        chain verified again; one that fails hosts nothing and counts in
        :attr:`last_recovery`.  A stored retire drops what a crash left
        behind.  Then every hosted log is replayed into its replica in
        place (:func:`~repro.server.storage.replay`): a frame the
        attestation rule refuses — a record altered at rest, a run torn
        before its heartbeat — is counted, never stored.  A frame whose
        CRC fails ends its segment's replay; the backend logs it and the
        report counts it, and what the log lost there is missing from
        the replica's sync leaves, so anti-entropy refetches it.
        """
        report = dict.fromkeys(self.last_recovery, 0)
        for name in self.storage.list_capsules():
            if name in self.hosted:
                continue
            try:
                metadata, chain, placement = _hosting_from_wire(
                    name, self.storage.load_hosting(name)
                )
                self._verify_hosting(metadata, chain, placement)
            except GdpError:
                report["hosting_refused"] += 1
                continue
            self._apply_hosting(metadata, chain, placement)
        events = self.storage.recovery_log
        seen = len(events)
        for name, hosted in self.hosted.items():
            new, refused = replay(hosted.capsule, self.storage.load_entries(name))
            report["records"] += new
            report["refused"] += refused
        report["corrupt_frames"] = sum(
            1 for e in events[seen:] if e["event"] == "corrupt_frame_skipped"
        )
        self.last_recovery = report
        return report["records"]

    # -- request handling ----------------------------------------------------

    def handle_message(self, message: Any, peer: Any) -> None:
        """Inbound message dispatch (overrides the base handler)."""
        if self.crashed:
            return  # a dead server is silence on the wire
        super().handle_message(message, peer)

    def drain(self, poll: float = 0.01, max_wait: float = 30.0):
        """Process body: graceful shutdown, losing no acked record.

        Stops accepting new data ops (they get an ``unavailable``
        error), waits for every in-flight op — an append is only acked
        after its durability policy is satisfied, so waiting for the
        in-flight set empties the set of acked-but-unpersisted records —
        then flushes the storage backend.  Observes the wall time spent
        in the ``server.drain_ms`` histogram and returns it.
        """
        start = self.ctx.now
        self.draining = True
        while self._inflight > 0 and self.ctx.now - start < max_wait:
            yield poll
        self.storage.sync()
        drain_ms = (self.ctx.now - start) * 1000.0
        self._h_drain_ms.observe(drain_ms)
        return drain_ms

    def on_request(self, pdu: Pdu) -> Any:
        """Serve one application request (see class docstring).

        Ops resolve through the typed dispatch registry
        (:func:`repro.runtime.dispatch.dispatch_op`): unknown ops,
        payloads failing their declared field types, and handlers
        raising :class:`GdpError` all come back as structured error
        envelopes, which are then secure-wrapped like any response.
        """
        payload = pdu.payload
        if self.draining:
            return self._wrap(
                pdu,
                None,
                {
                    "ok": False,
                    "error": "server is draining",
                    "error_kind": "unavailable",
                },
            )
        result = dispatch_op(self, pdu, payload)
        if isinstance(result, dict) and result.get("error_kind"):
            return self._wrap(pdu, None, result)
        if isinstance(result, Future):
            wrapped = self.ctx.future()
            capsule_name = self._capsule_of(payload)
            self._inflight += 1

            def finish(fut: Future) -> None:
                self._inflight -= 1
                try:
                    body = fut.result()
                except GdpError as exc:
                    body = {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                wrapped.resolve(self._wrap(pdu, capsule_name, body))

            result.add_callback(finish)
            return wrapped
        return self._wrap(pdu, self._capsule_of(payload), result)

    @staticmethod
    def _capsule_of(payload: Any) -> GdpName | None:
        if isinstance(payload, dict) and isinstance(
            payload.get("capsule"), bytes
        ):
            try:
                return GdpName(payload["capsule"])
            except GdpError:
                return None
        return None

    def _wrap(self, pdu: Pdu, capsule: GdpName | None, body: Any) -> Any:
        """Apply the secure-response envelope (HMAC if a session exists,
        signature otherwise)."""
        session = self._sessions.get(pdu.src)
        if session is not None and (pdu.src, pdu.corr_id) not in self._sign_anyway:
            return mac_response(session, pdu.src, pdu.corr_id, body)
        self._sign_anyway.discard((pdu.src, pdu.corr_id))
        chain = None
        if capsule is not None and capsule in self.hosted:
            chain = self.hosted[capsule].chain
        return sign_response(
            self.key, self.metadata, chain, pdu.src, pdu.corr_id, body
        )

    def _hosted(self, payload: dict) -> HostedCapsule:
        name = GdpName(payload["capsule"])
        hosted = self.hosted.get(name)
        if hosted is None:
            raise RecordNotFoundError(
                f"capsule {name.human()} is not hosted on {self.node_id}"
            )
        return hosted

    # -- ops -------------------------------------------------------------

    @op("host", capsule=bytes, metadata=dict, chain=dict, placement=dict)
    def _op_host(self, pdu: Pdu, payload: dict) -> Any:
        """Apply a placement (:meth:`host_capsule`).  A server newly
        named by a later placement — a migration's target — syncs once
        with each sibling before it answers, so it holds the history
        before the owner retires any copy."""
        metadata = Metadata.from_wire(payload["metadata"])
        placement = Placement.from_wire(payload["placement"])
        chain = ServiceChain.from_wire(payload["chain"])
        newly_named = metadata.name not in self.hosted
        hosted = self.host_capsule(metadata, chain, placement)
        body = {"ok": True, "capsule": metadata.name.raw}
        if hosted is None or not newly_named:
            return body
        self._schedule_readvertise()  # the new name must become routable
        if placement.version == 1:
            return body
        return self.ctx.spawn(self._warm(hosted, body), name="warm").completion

    def _warm(self, hosted: HostedCapsule, body: dict) -> Any:
        """Process body: one sync round with each sibling; returns *body*
        with the count of records fetched."""
        from repro.server.replication import sync_once

        fetched = 0
        for sibling in list(hosted.siblings):
            fetched += yield from sync_once(self, hosted.capsule.name, sibling)
        return dict(body, fetched=fetched)

    def _schedule_readvertise(self) -> None:
        """Re-advertise the full catalog, retrying while a previous
        handshake is still in flight."""
        if self._uplink is None:
            return
        if self._pending_adv is not None and not self._pending_adv.done:
            self.ctx.schedule(0.05, self._schedule_readvertise)
            return
        self.advertise(self.catalog_entries())

    def _store_admitted(
        self,
        hosted: HostedCapsule,
        records: list[Record],
        heartbeats: list[Heartbeat],
    ) -> None:
        """Persist what the capsule just admitted in one
        ``append_entries`` — every write op and every sync reply writes a
        replica here — then tell the backend of each checkpoint record
        (segments wholly below it become compactable)."""
        name = hosted.capsule.name
        entries = [("r", record.to_wire()) for record in records]
        entries += [("h", heartbeat.to_wire()) for heartbeat in heartbeats]
        if entries:
            self.storage.append_entries(name, entries)
        is_checkpoint = getattr(hosted.capsule.strategy, "is_checkpoint", None)
        for record in records:
            if is_checkpoint is not None and is_checkpoint(record.seqno):
                self.storage.note_checkpoint(name, record.seqno)

    def _ingest(self, payload: dict, *, writer: bool) -> Any:
        """Both write ops: admit the run under its tip heartbeat, store
        what was new and, if anything was, push the run to subscribers.
        ``append_batch`` goes on to the durability tail, which forwards
        the run to the siblings as ``replicate_batch``."""
        hosted = self._hosted(payload)
        capsule = hosted.capsule
        records, heartbeat = run_from_wire(capsule.name, payload)
        new, heartbeat_new = capsule.admit(records, heartbeat)
        self._store_admitted(hosted, new, [heartbeat] if heartbeat_new else [])
        if new:
            self._push_to_subscribers(hosted, records, heartbeat)
        body = {"ok": True, "seqno": records[-1].seqno}
        if not writer:
            self._c_replications.inc(len(records))
            return body
        self._c_appends.inc(len(records))
        replicate = {"op": "replicate_batch", **run_wire(records, heartbeat)}
        body["acks"] = 1
        policy = AckPolicy(payload.get("acks", "any"))
        replica_count = 1 + len(hosted.siblings)
        if policy.is_fast_path(replica_count) or not hosted.siblings:
            # Fast path: ack now, propagate in the background (§VI-B);
            # anti-entropy repairs anything this loses.
            for sibling in hosted.siblings:
                self.rpc(sibling, dict(replicate), timeout=None)
            return body
        required = policy.required_acks(replica_count)
        return self._collect_acks(hosted, replicate, required, body)

    @op("append_batch", capsule=bytes, records=list, heartbeat=dict, acks=opt(str))
    def _op_append_batch(self, pdu: Pdu, payload: dict) -> Any:
        """A writer's run (one record or many; see ClientWriter)."""
        return self._ingest(payload, writer=True)

    @op("replicate_batch", capsule=bytes, records=list, heartbeat=dict)
    def _op_replicate_batch(self, pdu: Pdu, payload: dict) -> dict:
        """Sibling-to-sibling propagation of a writer's run."""
        return self._ingest(payload, writer=False)

    def _collect_acks(
        self, hosted: HostedCapsule, replicate: dict, required: int, body: dict
    ) -> Future:
        """Durable path: wait until *required* replicas (including us)
        have persisted the record(s) and answer *body* with the ack
        count, or report how far we got.  An ack counts only when
        :meth:`accept_sibling_reply` opens it, so a forger cannot."""
        result = self.ctx.future()
        capsule = hosted.capsule.name
        state = {"acks": 1, "outstanding": len(hosted.siblings)}

        def check_done() -> None:
            if result.done:
                return
            if state["acks"] >= required:
                result.resolve(dict(body, acks=state["acks"]))
            elif state["outstanding"] == 0:
                result.resolve(
                    {
                        "ok": False,
                        "error": "insufficient durability acks",
                        "seqno": body["seqno"],
                        "acks": state["acks"],
                        "required": required,
                    }
                )

        for sibling in hosted.siblings:
            corr_id, future = self.request(
                sibling, dict(replicate), timeout=REPLICATION_ACK_TIMEOUT
            )

            def on_ack(fut: Future, corr_id=corr_id, sibling=sibling) -> None:
                state["outstanding"] -= 1
                if self.accept_sibling_reply(
                    fut, corr_id, capsule=capsule, sibling=sibling
                ) is not None:
                    state["acks"] += 1
                check_done()

            future.add_callback(on_ack)
        check_done()
        return result

    def accept_sibling_reply(
        self, reply: Future, corr_id: int, *, capsule: GdpName, sibling: GdpName
    ) -> dict | None:
        """The body of *sibling*'s reply (the settled *reply* future of
        request *corr_id*) if it opens
        (:func:`~repro.server.secure.open_response`) as an ``ok`` for
        *capsule*, else None; counts each refused reply."""
        try:
            wrapped = reply.result()
        except GdpError:  # no reply (timeout, no route): nothing to open
            return None
        try:
            body, _ = open_response(
                wrapped, requester=self.name, corr_id=corr_id, capsule=capsule,
                server=sibling, now=self.ctx.now,
            )
        except GdpError:
            self._c_replies_refused.inc()
            return None
        return body if body.get("ok") else None

    def sibling_reply(self, call, *, capsule: GdpName, sibling: GdpName) -> Generator:
        """Process body: the reply to *call* (a :meth:`request` result)
        through :meth:`accept_sibling_reply`; None without one."""
        corr_id, future = call
        try:
            yield future
        except GdpError:  # settled without a reply: the opener says so
            pass
        return self.accept_sibling_reply(
            future, corr_id, capsule=capsule, sibling=sibling
        )

    @op("read_range", capsule=bytes, first=opt(int), last=opt(int))
    def _op_read_range(self, pdu: Pdu, payload: dict) -> dict:
        """The one read op: records ``first..last`` under a range proof
        anchored at the newest heartbeat.  ``last`` omitted reads through
        that heartbeat's record, and ``first`` omitted is ``last``; with
        no heartbeat yet an open-ended read answers no records.  A long
        range is answered with a prefix: records up to
        ``MAX_RANGE_REPLY_BYTES`` (always at least one) and a proof for
        exactly those; the reader continues after the last one served."""
        hosted = self._hosted(payload)
        capsule = hosted.capsule
        last = payload.get("last")
        if last is None:
            if capsule.latest_heartbeat is None:
                return {"ok": True, "records": []}
            last = capsule.latest_heartbeat.seqno
        headers = []
        payload_room = MAX_RANGE_REPLY_BYTES
        framing_room = MAX_RANGE_REPLY_BYTES // 2
        for header in capsule.read_range(payload.get("first", last), last):
            payload_room -= header.size
            # 64 B bounds the encoded seqno and each encoded pointer
            framing_room -= 64 * (1 + len(header.pointers))
            if headers and (payload_room < 0 or framing_room < 0):
                break
            headers.append(header)
        proof = build_range_proof(capsule, headers[0].seqno, headers[-1].seqno)
        self._c_reads.inc()
        wires = self._stored_wires(hosted, headers)
        body = {"ok": True, "records": wires, "proof": proof.to_wire()}
        if None in wires:
            repair = self._repair(hosted, headers, wires, body)
            return self.ctx.spawn(repair, name="repair").completion
        return body

    def _stored_wires(self, hosted: HostedCapsule, headers: list[Record]) -> list:
        """Per header the wire the backend's point read holds for it
        (:meth:`~Record.matches`), or None, counted, where none does."""
        stored = self.storage.read_records(hosted.capsule.name, {h.seqno for h in headers})
        wires = [
            next((w for w in stored.get(h.seqno, ()) if h.matches(w)), None)
            for h in headers
        ]
        self._c_corrupt_frames.inc(wires.count(None))
        return wires

    def _repair(self, hosted: HostedCapsule, headers: list, wires: list, body: dict):
        """Process body: fetch each record whose stored wire failed its
        check from the siblings in turn, keep it only if it has the held
        digest, store it again and serve *body*; raise if none has it."""
        name = hosted.capsule.name
        missing = {headers[i].digest: i for i, wire in enumerate(wires) if wire is None}
        failed = {headers[i].seqno for i in missing.values()}
        for sibling in list(hosted.siblings):
            seqnos = sorted({headers[i].seqno for i in missing.values()})
            ask = {"op": "sync_fetch_batch", "capsule": name.raw, "seqnos": seqnos,
                   "max_bytes": MAX_RANGE_REPLY_BYTES}
            call = self.request(sibling, ask, timeout=REPLICATION_ACK_TIMEOUT)
            reply = yield from self.sibling_reply(call, capsule=name, sibling=sibling)
            for wire in (reply or {}).get("records", []):
                try:
                    record = Record.from_wire(name, wire)
                except GdpError:
                    continue
                if record.digest in missing:
                    wires[missing.pop(record.digest)] = record.to_wire()
                    self.storage.append_entries(name, [("r", record.to_wire())])
            if not missing:  # the failing frames leave the read path
                held = hosted.capsule.get_all
                self.storage.read_records(
                    name, failed, lambda w: any(h.matches(w) for h in held(w["seqno"]))
                )
                return body
        raise StorageError(f"no sibling supplied {len(missing)} record(s) failing their check")

    def stored_records(self, name: GdpName, seqno: int) -> list[Record]:
        """The records held at *seqno*, payloads read back from the log."""
        hosted = self.hosted[name]
        wires = self._stored_wires(hosted, hosted.capsule.get_all(seqno))
        return [Record.from_wire(name, wire) for wire in wires if wire is not None]

    @op("metadata", capsule=bytes)
    def _op_metadata(self, pdu: Pdu, payload: dict) -> dict:
        hosted = self._hosted(payload)
        return {
            "ok": True,
            "metadata": hosted.capsule.metadata.to_wire(),
            "chain": hosted.chain.to_wire(),
        }

    @op("subscribe", capsule=bytes, subgrant=opt(object))
    def _op_subscribe(self, pdu: Pdu, payload: dict) -> dict:
        hosted = self._hosted(payload)
        # Restricted capsules require an owner-signed subscription
        # credential (§VII fn. 9: "restricting subscription to
        # DataCapsule updates ... who can join a secure multicast tree").
        if hosted.capsule.metadata.properties.get("restricted_subscribe"):
            from repro.delegation.certs import SubGrant

            grant_wire = payload.get("subgrant")
            if grant_wire is None:
                raise AuthorizationError(
                    "capsule requires a subscription credential"
                )
            grant = SubGrant.from_wire(grant_wire)
            grant.verify(
                hosted.capsule.metadata.owner_key,
                now=self.ctx.now,
                capsule=hosted.capsule.name,
                subscriber=pdu.src,
            )
        hosted.subscribers.add(pdu.src)
        return {"ok": True, "from_seqno": hosted.capsule.last_seqno + 1}

    @op("unsubscribe", capsule=bytes)
    def _op_unsubscribe(self, pdu: Pdu, payload: dict) -> dict:
        hosted = self._hosted(payload)
        hosted.subscribers.discard(pdu.src)
        return {"ok": True}

    @op("session", client_key=bytes, offer=object)
    def _op_session(self, pdu: Pdu, payload: dict) -> dict:
        """Authenticated ECDH handshake (the client is the initiator)."""
        client_identity = VerifyingKey.from_bytes(payload["client_key"])
        handshake = Handshake(self.key)
        session = handshake.finish(
            payload["offer"], client_identity, initiator=False
        )
        self._sessions[pdu.src] = session
        # This response itself is still signed (the session starts with
        # the *next* message), so the client can authenticate the offer.
        self._sign_anyway.add((pdu.src, pdu.corr_id))
        return {"ok": True, "offer": handshake.offer()}

    # -- Merkle-delta anti-entropy (see server/replication.py) ------------

    @op("sync_root", capsule=bytes)
    def _op_sync_root(self, pdu: Pdu, payload: dict) -> dict:
        """Round opener: O(1) reply — tip seqno, record count, the
        Merkle root over the whole sync index, and the tip heartbeat
        (so the peer's frontier advances even when record sets match)."""
        hosted = self._hosted(payload)
        capsule = hosted.capsule
        self._c_sync_rounds.inc()
        last = capsule.last_seqno
        body: dict = {
            "ok": True,
            "last_seqno": last,
            "count": len(capsule),
            "root": capsule.range_root(1, last) if last else b"",
        }
        heartbeat = capsule.latest_heartbeat
        if heartbeat is not None:
            body["heartbeat"] = heartbeat.to_wire()
        return body

    @op("sync_nodes", capsule=bytes, ranges=list)
    def _op_sync_nodes(self, pdu: Pdu, payload: dict) -> dict:
        """Bisection probe: Merkle roots for the requested seqno ranges
        (``[[lo, hi], ...]``, at most ``MAX_SYNC_RANGES`` per request,
        none past the tip — a root walks one leaf per seqno)."""
        hosted = self._hosted(payload)
        ranges = payload["ranges"]
        if len(ranges) > MAX_SYNC_RANGES:
            raise CapsuleError(
                f"sync_nodes accepts at most {MAX_SYNC_RANGES} ranges"
            )
        last = hosted.capsule.last_seqno
        hashes = []
        for entry in ranges:
            lo, hi = int(entry[0]), int(entry[1])
            if hi > last:
                raise CapsuleError(f"sync range [{lo}, {hi}] is past the tip {last}")
            hashes.append(hosted.capsule.range_root(lo, hi))
        return {"ok": True, "hashes": hashes}

    @op("sync_fetch_batch", capsule=bytes, seqnos=list, max_bytes=opt(int))
    def _op_sync_fetch_batch(self, pdu: Pdu, payload: dict) -> dict:
        """Size-capped record transfer: records + their heartbeats for
        the requested seqnos, in request order, stopping once the reply
        would exceed ``max_bytes`` (always serving at least one seqno so
        the requester makes progress).  The requester picks ``max_bytes``,
        so it is clamped to ``MAX_RANGE_REPLY_BYTES``: the reply must fit
        one transport frame.  ``served`` lists the seqnos actually
        processed; the requester re-queues the rest.  A record whose
        stored wire fails its check is left out (and counted)."""
        hosted = self._hosted(payload)
        budget = min(
            payload.get("max_bytes") or DEFAULT_SYNC_BATCH_BYTES,
            MAX_RANGE_REPLY_BYTES,
        )
        records, heartbeats, served = [], [], []
        for seqno in payload["seqnos"]:
            seqno = int(seqno)
            entry_records = [
                wire
                for wire in self._stored_wires(hosted, hosted.capsule.get_all(seqno))
                if wire is not None
            ]
            entry_heartbeats = [
                h.to_wire() for h in hosted.capsule.heartbeats_at(seqno)
            ]
            cost = payload_size([entry_records, entry_heartbeats])
            if served and cost > budget:
                break
            budget -= cost
            records.extend(entry_records)
            heartbeats.extend(entry_heartbeats)
            served.append(seqno)
        return {
            "ok": True,
            "records": records,
            "heartbeats": heartbeats,
            "served": served,
        }

    # -- subscriptions ------------------------------------------------------

    def _push_to_subscribers(
        self, hosted: HostedCapsule, records: list[Record], heartbeat: Heartbeat
    ) -> None:
        """Publish a run that stored something new to every subscriber
        (§V 'subscribe' enables "an event-driven programming model"): one
        PDU per run, the run itself, which the subscriber admits as a
        replica does — no proof is built for it."""
        if not hosted.subscribers:
            return
        run = run_wire(records, heartbeat)
        for subscriber in sorted(hosted.subscribers, key=lambda n: n.raw):
            self.send_pdu(Pdu(self.name, subscriber, pdutypes.T_PUSH, dict(run)))
            self._c_pushes.inc()


def _hosting_from_wire(
    name: GdpName, hosting: dict | None
) -> tuple[Metadata, ServiceChain, Placement | None]:
    """Parse a stored hosting record of capsule *name*; raises
    :class:`GdpError` on any malformed or mismatched part."""
    try:
        metadata = Metadata.from_wire(hosting["metadata"])
        chain = ServiceChain.from_wire(hosting["chain"])
        placement = hosting["placement"]
    except (KeyError, TypeError) as exc:
        raise CapsuleError(f"malformed hosting record: {exc}") from exc
    if metadata.name != name:
        raise CapsuleError("hosting record is for a different capsule")
    if placement is not None:
        placement = Placement.from_wire(placement)
    return metadata, chain, placement
