"""A Kademlia-style DHT as a scalable global GLookupService backend.

§VII: "the GLookupService is essentially a key-value store and is not
required to be trusted; existing technologies such as distributed hash
tables (DHTs) can be used to implement a highly distributed and scalable
GLookupService."

This is a *message-level* Kademlia over the 256-bit flat name space:
every FIND_NODE / FIND_VALUE / STORE / PING is a real
:class:`~repro.routing.pdu.Pdu` through the transport abstraction, so
the same node code runs under :class:`~repro.runtime.transport.SimTransport`
(deterministic chaos — drops, tampering, delays, replays, crashes all
apply to DHT traffic) and over asyncio TCP.  Liveness is discovered the
only way a distributed system can: per-RPC timeout + retry, with
unreachable peers demoted from their k-bucket and replaced from a
per-bucket replacement cache.

Churn tolerance:

- **records are a value and an expiry** — filed under the SHA-256 of
  the value's canonical encoding, so copies of one value merge to the
  later expiry and a different value never replaces it; removal is by
  expiry only (a holder keeps a record at most :data:`RECORD_TTL` past
  its arrival), and an :class:`~repro.routing.fib.ExpiryWheel` per node
  reclaims dead records lazily;
- **re-replication** — a lookup that observes fewer than k live holders
  re-stores the merged records on the closest responsive non-holders
  (Kademlia caching as repair), and STOREs report *acked* replica
  counts so under-replication is measured, never assumed away;
- **leave/crash** — a leaving node hands its records to its closest
  peers; a crashed node simply stops answering and the demotion +
  republish machinery routes around it.

Because GLookup entries are *independently verifiable* (they carry
delegation chains) and a record carries nothing else to order or erase
by, the DHT nodes never need to be trusted — a node returning a forged
entry fails the verifier exactly like a compromised GLookupService
does, and a forged value sits beside the genuine one instead of
replacing it.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Any

from repro import encoding
from repro.errors import TimeoutError_, TransportError, WireFormatError
from repro.naming.names import GdpName
from repro.routing.fib import ExpiryWheel
from repro.routing.pdu import (
    Pdu,
    T_DHT_FIND_NODE,
    T_DHT_FIND_VALUE,
    T_DHT_NODES,
    T_DHT_PING,
    T_DHT_PONG,
    T_DHT_STORE,
    T_DHT_STORE_ACK,
    T_DHT_VALUES,
)
from repro.runtime.network import Node

__all__ = ["DhtNode", "KademliaDht", "LookupResult"]

KEY_BITS = 256

#: one RPC attempt's deadline (simulated seconds)
RPC_TIMEOUT = 1.0
#: extra attempts after the first before a peer is demoted
RPC_RETRIES = 1
#: lifetime of a stored record (republish must beat this); a holder
#: keeps no record longer than this past its arrival
RECORD_TTL = 30.0
#: don't ping a bucket head seen more recently than this (Kademlia's
#: "recently seen nodes are almost certainly alive" optimization)
PING_STALENESS = 30.0

_REPLY_TYPES = frozenset((T_DHT_NODES, T_DHT_VALUES, T_DHT_STORE_ACK, T_DHT_PONG))


class LookupResult:
    """What one DHT operation learned and what it cost.  Each put or
    get owns its result, so concurrent operations through one node
    never share a tally."""

    __slots__ = (
        "key", "hops", "messages", "acked", "closest", "responded",
        "failed", "holders", "records", "values",
    )

    def __init__(self, key: GdpName):
        self.key = key
        #: iterative rounds (the O(log n)-bounded quantity)
        self.hops = 0
        #: lookup-plane RPCs this operation sent (retries included)
        self.messages = 0
        #: replicas that acknowledged a put (0 for a get)
        self.acked = 0
        #: k closest *responsive* peers, nearest first
        self.closest: list[GdpName] = []
        self.responded: set[GdpName] = set()
        self.failed: set[GdpName] = set()
        #: responsive peers that returned at least one record
        self.holders: set[GdpName] = set()
        #: merged records, value digest -> latest-expiring copy (the get
        #: path keeps only the live ones)
        self.records: dict[bytes, dict] = {}
        #: live record payloads (filled by the get path)
        self.values: list[Any] = []


def make_record(value: Any, expires_at: float) -> dict:
    """Build one wire record: a value and its absolute expiry."""
    return {"d": value, "e": encoding.pack_float(expires_at)}


def record_expiry(record: dict) -> float:
    """The absolute expiry of a (validated) record."""
    return encoding.unpack_float(record["e"])


def _valid_record(record: Any) -> bool:
    """Shape check for records arriving from untrusted peers."""
    return (
        isinstance(record, dict)
        and "d" in record
        and isinstance(record.get("e"), bytes)
        and len(record["e"]) == 8
    )


def value_principal(value: Any) -> bytes:
    """A record's identity: the digest of its value's canonical
    encoding.  Distinct values coexist under one key, identical re-puts
    merge."""
    return hashlib.sha256(encoding.encode(value)).digest()


def _keep_latest(records: dict[bytes, dict], record: dict) -> bool:
    """File *record* under its value's digest in *records*, keeping
    whichever copy expires later; returns whether *record* was kept."""
    digest = value_principal(record["d"])
    old = records.get(digest)
    if old is not None and record_expiry(old) >= record_expiry(record):
        return False
    records[digest] = record
    return True


class DhtNode(Node):
    """One DHT participant: k-buckets + a TTL'd record store,
    speaking FIND_NODE / FIND_VALUE / STORE / PING over its network's
    transport.

    Peers are reached through :attr:`peers`, a transport address ->
    peer handle table (a linked node on the simulator, a channel on
    sockets) filled by whoever wires the underlay; an address missing
    from it is unreachable.  Every node counts in its network's one
    ``dht`` scope: ``dht.messages`` (lookup-plane RPCs), ``dht.pings``
    (bucket upkeep), ``dht.timeouts`` and ``dht.demotions``.
    """

    def __init__(
        self,
        network,
        name: GdpName,
        k: int = 8,
        *,
        alpha: int = 3,
    ):
        self.name = name
        self.k = k
        self.alpha = alpha
        ring = network.metrics.node("dht")
        self._c_messages = ring.counter("dht.messages")
        self._c_pings = ring.counter("dht.pings")
        self._c_timeouts = ring.counter("dht.timeouts")
        self._c_demotions = ring.counter("dht.demotions")
        self.buckets: list[list[GdpName]] = [[] for _ in range(KEY_BITS)]
        #: per-bucket candidates waiting for a ping-before-evict verdict
        self.replacements: dict[int, list[GdpName]] = {}
        #: peer -> transport address (underlay label, not liveness)
        self.addrs: dict[GdpName, str] = {}
        self.last_seen: dict[GdpName, float] = {}
        #: key -> value digest -> record (TTL'd)
        self.store: dict[GdpName, dict[bytes, dict]] = {}
        self.wheel = ExpiryWheel(1.0)
        self.crashed = False
        self._pending: dict[int, Any] = {}
        self._pinging: set[int] = set()
        self.peers: dict[str, Any] = {}
        super().__init__(network, f"dht:{name.raw.hex()[:16]}")
        self.transport = network.transport_for(self).bind(self._on_pdu)

    # -- wiring ------------------------------------------------------------

    def contact(self) -> dict:
        """This node's wire contact (name + transport address)."""
        return {"n": self.name.raw, "a": self.node_id}

    def receive(self, message: Any, sender: Node, link) -> None:
        """Link-layer delivery: hand PDUs to the transport; a crashed
        node swallows them (the link already counted the delivery, so
        the conservation oracle's ledger stays balanced)."""
        if self.crashed or not isinstance(message, Pdu):
            return
        self.transport.deliver(message, sender)

    def crash(self) -> None:
        """Fail-stop: stop answering and originating (store retained)."""
        self.crashed = True

    def restart(self) -> None:
        """Come back up with the pre-crash store (republish and lookup
        repair reconcile whatever changed while down)."""
        self.crashed = False

    # -- k-buckets ---------------------------------------------------------

    def _bucket_index(self, other: GdpName) -> int:
        distance = self.name.distance(other)
        if distance == 0:
            return 0
        return distance.bit_length() - 1

    def observe(self, other: GdpName, addr: str | None = None) -> None:
        """Insert/refresh a peer in its k-bucket.

        A full bucket never evicts blindly: the candidate waits in the
        replacement cache while the least-recently-seen resident is
        pinged; only a ping timeout makes room (Kademlia §2.2 — stable
        long-lived peers beat churned-in newcomers).
        """
        if other == self.name:
            return
        if addr is not None:
            self.addrs[other] = addr
        now = self.ctx.now
        index = self._bucket_index(other)
        bucket = self.buckets[index]
        self.last_seen[other] = now
        if other in bucket:
            bucket.remove(other)
            bucket.append(other)
            return
        if len(bucket) < self.k:
            bucket.append(other)
            return
        cache = self.replacements.setdefault(index, [])
        if other in cache:
            cache.remove(other)
        cache.append(other)
        if len(cache) > self.k:
            cache.pop(0)
        oldest = bucket[0]
        if (
            not self.crashed
            and index not in self._pinging
            and now - self.last_seen.get(oldest, float("-inf")) > PING_STALENESS
        ):
            self._pinging.add(index)
            self.ctx.spawn(
                self._probe_oldest(index), name=f"dht-ping:{self.node_id}"
            )

    def _probe_oldest(self, index: int):
        """Ping-before-evict: the bucket head answers -> it stays (moved
        to the tail); it times out -> ``_demote`` already evicted it and
        promoted a replacement-cache candidate."""
        try:
            bucket = self.buckets[index]
            if not bucket:
                return
            oldest = bucket[0]
            reply = yield from self._rpc(oldest, T_DHT_PING, {})
            if reply is not None and bucket and bucket[0] == oldest:
                bucket.remove(oldest)
                bucket.append(oldest)
        finally:
            self._pinging.discard(index)

    def _demote(self, peer: GdpName) -> None:
        """Drop an unresponsive peer; promote the freshest replacement."""
        self._c_demotions.inc()
        index = self._bucket_index(peer)
        bucket = self.buckets[index]
        if peer not in bucket:
            return
        bucket.remove(peer)
        cache = self.replacements.get(index)
        while cache:
            candidate = cache.pop()
            if candidate != peer and candidate not in bucket:
                bucket.append(candidate)
                break

    def closest(self, key: GdpName, count: int) -> list[GdpName]:
        """The *count* known peers closest to *key* (including self)."""
        candidates = {self.name}
        for bucket in self.buckets:
            candidates.update(bucket)
        return heapq.nsmallest(
            count, candidates, key=lambda n: n.distance(key)
        )

    def _contacts_wire(self, key: GdpName, count: int) -> list[dict]:
        contacts = []
        for peer in self.closest(key, count):
            if peer == self.name:
                contacts.append(self.contact())
            else:
                addr = self.addrs.get(peer)
                if addr is not None:
                    contacts.append({"n": peer.raw, "a": addr})
        return contacts

    # -- the record store --------------------------------------------------

    def merge_record(self, key: GdpName, record: dict) -> bool:
        """Merge one record; returns whether it is held.

        A copy of a value already held extends its expiry in place
        (republish), so a record's lifetime is ``last republish +
        RECORD_TTL``, not its first arrival; no expiry is taken further
        than one :data:`RECORD_TTL` past now.
        """
        if not _valid_record(record):
            return False
        now = self.ctx.now
        expiry = min(record_expiry(record), now + RECORD_TTL)
        if expiry <= now:
            return False
        slot = self.store.setdefault(key, {})
        if _keep_latest(slot, make_record(record["d"], expiry)):
            self.wheel.schedule(key.raw, expiry)
        return True

    def records_for(self, key: GdpName) -> list[dict]:
        """Live records under *key*."""
        self.cull_expired()
        slot = self.store.get(key)
        if not slot:
            return []
        return [dict(record) for record in slot.values()]

    def cull_expired(self, now: float | None = None) -> int:
        """Reclaim records whose TTL elapsed (wheel-driven, O(expired));
        keys left empty are deleted, never parked as ``[]`` husks."""
        if now is None:
            now = self.ctx.now
        reclaimed = 0
        for token in self.wheel.expired(now):
            key = GdpName(token)
            slot = self.store.get(key)
            if not slot:
                continue
            live = {
                digest: record
                for digest, record in slot.items()
                if record_expiry(record) > now
            }
            reclaimed += len(slot) - len(live)
            if live:
                self.store[key] = live
            else:
                del self.store[key]
        return reclaimed

    # -- the RPC plane -----------------------------------------------------

    def _rpc(self, peer_name: GdpName, ptype: str, payload: dict,
             op: LookupResult | None = None):
        """One request/reply exchange with timeout + retry; an exhausted
        peer is demoted.  Lookup-plane attempts are charged to *op*, the
        operation they serve.  Returns the reply payload or None — never
        raises, so lookup rounds degrade instead of aborting."""
        for _attempt in range(1 + RPC_RETRIES):
            if self.crashed:
                return None
            peer = self.peers.get(self.addrs.get(peer_name))
            if peer is None:
                break
            request = dict(payload)
            request["s"] = self.contact()
            pdu = Pdu(self.name, peer_name, ptype, request)
            future = self.ctx.future()
            self._pending[pdu.corr_id] = future
            if ptype == T_DHT_PING:
                self._c_pings.inc()
            else:
                self._c_messages.inc()
                if op is not None:
                    op.messages += 1
            try:
                self.transport.send(peer, pdu)
            except (TransportError, WireFormatError):
                self._pending.pop(pdu.corr_id, None)
                break
            try:
                reply = yield self.ctx.timeout(
                    future, RPC_TIMEOUT, f"{ptype}->{peer_name.human()}"
                )
            except TimeoutError_:
                self._pending.pop(pdu.corr_id, None)
                self._c_timeouts.inc()
                continue
            return reply if isinstance(reply, dict) else None
        self._demote(peer_name)
        return None

    def _on_pdu(self, pdu: Pdu, peer: Any) -> None:
        """Transport delivery: resolve pending replies, serve requests.

        Handlers are idempotent and validation is defensive — replayed
        duplicates and tampered payloads from the chaos middlewares must
        degrade to drops, never crashes.  Stale/duplicate replies miss
        the pending table and are discarded.
        """
        if self.crashed:
            return
        if pdu.ptype in _REPLY_TYPES:
            future = self._pending.pop(pdu.corr_id, None)
            if future is not None and not future.done:
                future.resolve(pdu.payload)
            return
        try:
            self._serve(pdu, peer)
        except Exception:
            return  # malformed request from an untrusted peer: drop

    def _serve(self, pdu: Pdu, peer: Any) -> None:
        payload = pdu.payload
        if not isinstance(payload, dict):
            return
        sender = payload.get("s")
        if (
            isinstance(sender, dict)
            and isinstance(sender.get("n"), bytes)
            and len(sender["n"]) == 32
            and isinstance(sender.get("a"), str)
        ):
            self.observe(GdpName(sender["n"]), addr=sender["a"])
        if pdu.ptype == T_DHT_PING:
            self._reply(pdu, peer, T_DHT_PONG, {})
            return
        if pdu.ptype == T_DHT_STORE:
            key_raw = payload.get("k")
            if not isinstance(key_raw, bytes) or len(key_raw) != 32:
                return
            key = GdpName(key_raw)
            stored = 0
            records = payload.get("r")
            if isinstance(records, list):
                for record in records:
                    if self.merge_record(key, record):
                        stored += 1
            self._reply(pdu, peer, T_DHT_STORE_ACK, {"ok": 1, "n": stored})
            return
        if pdu.ptype in (T_DHT_FIND_NODE, T_DHT_FIND_VALUE):
            key_raw = payload.get("k")
            if not isinstance(key_raw, bytes) or len(key_raw) != 32:
                return
            key = GdpName(key_raw)
            reply: dict = {"c": self._contacts_wire(key, self.k)}
            if pdu.ptype == T_DHT_FIND_VALUE:
                reply["r"] = self.records_for(key)
                self._reply(pdu, peer, T_DHT_VALUES, reply)
            else:
                self._reply(pdu, peer, T_DHT_NODES, reply)

    def _reply(self, pdu: Pdu, peer: Any, ptype: str, payload: dict) -> None:
        try:
            self.transport.send(peer, pdu.response(ptype, payload))
        except (TransportError, WireFormatError):
            pass  # requester's timeout covers a reply we cannot ship

    # -- iterative lookup --------------------------------------------------

    def iter_find(self, key: GdpName, *, want_value: bool = False):
        """Iterative Kademlia lookup from this node (a process).

        Each round queries the alpha closest unqueried candidates among
        the current k closest; unresponsive peers drop out of the
        candidate window, pulling the next-closest in — which is exactly
        what makes lookups land on live replicas under churn.  The loop
        ends once every candidate in the window has been queried.
        """
        result = LookupResult(key)
        shortlist: set[GdpName] = set(self.closest(key, self.k))
        shortlist.discard(self.name)
        while True:
            candidates = heapq.nsmallest(
                self.k,
                (n for n in shortlist if n not in result.failed),
                key=lambda n: n.distance(key),
            )
            to_query = [
                n for n in candidates
                if n not in result.responded and n not in result.failed
            ][: self.alpha]
            if not to_query:
                break
            result.hops += 1
            ptype = T_DHT_FIND_VALUE if want_value else T_DHT_FIND_NODE
            procs = [
                self.ctx.spawn(
                    self._rpc(peer, ptype, {"k": key.raw}, result),
                    name=f"dht-rpc:{self.node_id}",
                )
                for peer in to_query
            ]
            for peer, proc in zip(to_query, procs):
                reply = yield proc.completion
                if reply is None:
                    result.failed.add(peer)
                    continue
                result.responded.add(peer)
                self.observe(peer)
                contacts = reply.get("c")
                if isinstance(contacts, list):
                    for contact in contacts:
                        if not (
                            isinstance(contact, dict)
                            and isinstance(contact.get("n"), bytes)
                            and len(contact["n"]) == 32
                            and isinstance(contact.get("a"), str)
                        ):
                            continue
                        learned = GdpName(contact["n"])
                        if learned == self.name:
                            continue
                        self.observe(learned, addr=contact["a"])
                        shortlist.add(learned)
                if want_value:
                    records = reply.get("r")
                    got_record = False
                    for record in records if isinstance(records, list) else []:
                        if not _valid_record(record):
                            continue
                        got_record = True
                        _keep_latest(result.records, make_record(
                            record["d"], record_expiry(record)
                        ))
                    if got_record:
                        result.holders.add(peer)
        result.closest = heapq.nsmallest(
            self.k, result.responded, key=lambda n: n.distance(key)
        )
        return result


class KademliaDht:
    """The DHT fabric on one :class:`~repro.runtime.network.Network`:
    membership plus the put / get / leave processes.

    Every operation is a process the caller runs —
    ``ctx.run_process(dht.get_proc(...))`` or ``yield from`` it; the DHT
    never decides when to drive the network.  Underlay wiring (links,
    channels, each node's peer table) is the topology's job, as is
    running :meth:`join_proc` once a newcomer can reach its bootstrap
    contact.

    ``nodes`` exists for wiring, benchmarks, and oracles — the put/get
    protocol paths never read it for routing or liveness (the grep-guard
    test in ``tests/unit/test_dht_message_level.py`` enforces that);
    the one sanctioned protocol use is :meth:`_entry_node`, resolving
    the *caller's own* access point.
    """

    #: how many top-end buckets a joining node refreshes (enough for
    #: networks up to ~2**16 nodes; Kademlia's join-time bucket refresh)
    JOIN_REFRESH_BUCKETS = 16

    def __init__(self, network, k: int = 8, alpha: int = 3):
        self.net = network
        self.k = k
        self.alpha = alpha
        #: the ring's metrics scope (its nodes count here too)
        self.metrics = network.metrics.node("dht")
        self._c_under_replicated = self.metrics.counter("dht.under_replicated")
        self.nodes: dict[GdpName, DhtNode] = {}

    # -- membership --------------------------------------------------------

    def join(self, name: GdpName) -> DhtNode:
        """Add a node whose one contact is a bootstrap member (the
        lowest name); :meth:`join_proc` then integrates it."""
        node = DhtNode(self.net, name, self.k, alpha=self.alpha)
        if self.nodes:
            bootstrap = self.nodes[min(self.nodes)]
            node.observe(bootstrap.name, addr=bootstrap.node_id)
        self.nodes[name] = node
        return node

    def join_proc(self, node: DhtNode):
        """A self-lookup and refreshes of the distant buckets — all
        through RPCs (peers learn of the newcomer from the sender
        contact its lookups carry)."""
        yield from node.iter_find(node.name)
        node_int = node.name.as_int()
        for bit in range(KEY_BITS - self.JOIN_REFRESH_BUCKETS, KEY_BITS):
            probe = GdpName((node_int ^ (1 << bit)).to_bytes(32, "big"))
            yield from node.iter_find(probe)

    def leave_proc(self, name: GdpName):
        """Graceful departure: hand every stored record to the closest
        known peers, then go dark (the node object stays wired so
        in-flight RPCs toward it time out realistically)."""
        node = self.nodes.get(name)
        if node is None or node.crashed:
            return
        for key in list(node.store):
            records = node.records_for(key)
            if not records:
                continue
            targets = [n for n in node.closest(key, self.k) if n != node.name]
            procs = [
                node.ctx.spawn(
                    node._rpc(
                        peer,
                        T_DHT_STORE,
                        {"k": key.raw, "r": [dict(r) for r in records]},
                    ),
                    name=f"dht-handoff:{node.node_id}",
                )
                for peer in targets
            ]
            for proc in procs:
                yield proc.completion
        node.crash()
        self.nodes.pop(node.name, None)

    def _entry_node(self, via: GdpName) -> DhtNode:
        """The caller-designated entry point — the one place the
        protocol path maps a name to a local node handle (addressing
        your own access point, not reading remote state)."""
        return self.nodes[via]

    # -- put / get ---------------------------------------------------------

    def put_proc(self, via: GdpName, key: GdpName, value: Any):
        """STORE *value* under *key* from entry node *via* (a process);
        returns the put's :class:`LookupResult`, whose ``acked`` counts
        only replicas that acknowledged — an unreachable replica is not
        durability, so it is not counted."""
        origin = self._entry_node(via)
        record = make_record(value, origin.ctx.now + RECORD_TTL)
        return (yield from self.put_records_proc(via, key, [record]))

    def put_records_proc(self, via: GdpName, key: GdpName, records: list[dict]):
        """Replicate prepared *records* to the k closest live nodes
        (the republish entry point); returns the :class:`LookupResult`
        with ``acked`` set."""
        origin = self._entry_node(via)
        result = yield from origin.iter_find(key)
        targets = result.closest
        acked = 0
        # Kademlia stores on the k closest nodes *including the caller*:
        # when the origin is itself inside the k-closest set (peers'
        # top-k replies list it, shrinking the remote target list), its
        # own replica is one of the k and must be written and counted.
        key_int = key.as_int()
        origin_dist = origin.name.as_int() ^ key_int
        if len(targets) < self.k or any(
            origin_dist < (peer.as_int() ^ key_int) for peer in targets
        ):
            stored = all(
                origin.merge_record(key, record) for record in records
            )
            if stored or origin.store.get(key):
                acked += 1
        if targets:
            procs = [
                origin.ctx.spawn(
                    origin._rpc(
                        peer,
                        T_DHT_STORE,
                        {"k": key.raw, "r": [dict(r) for r in records]},
                        result,
                    ),
                    name=f"dht-store:{origin.node_id}",
                )
                for peer in targets
            ]
            for proc in procs:
                reply = yield proc.completion
                if isinstance(reply, dict) and reply.get("ok"):
                    acked += 1
        if acked == 0:
            # Nobody reachable: keep the origin's own replica and say so
            # honestly — one acked copy, not a fabricated k.
            for record in records:
                origin.merge_record(key, record)
            acked = 1 if origin.store.get(key) else 0
        # The replication target is k (or the whole ring when it is
        # smaller) — judged against membership, not against however few
        # peers happened to respond, so a put that lands short because
        # holders are dark is *counted*, never silently absorbed.
        if acked < min(self.k, max(len(self.nodes), 1)):
            self._c_under_replicated.inc()
        result.acked = acked
        return result

    def get_proc(self, via: GdpName, key: GdpName):
        """FIND_VALUE for *key* from entry node *via* (a process);
        returns a :class:`LookupResult` with merged live values.

        A lookup that observes under-replication re-stores the merged
        records on the closest responsive non-holders (Kademlia caching
        doubling as churn repair).
        """
        origin = self._entry_node(via)
        result = yield from origin.iter_find(key, want_value=True)
        # The origin's own replica participates like any other holder.
        for record in origin.records_for(key):
            _keep_latest(result.records, record)
        now = origin.ctx.now
        result.records = {
            digest: record
            for digest, record in result.records.items()
            if record_expiry(record) > now
        }
        live = list(result.records.values())
        result.values = [record["d"] for record in live]
        if live:
            want = min(self.k, len(result.closest))
            holders = sum(1 for n in result.closest if n in result.holders)
            if holders < want:
                repairs = [
                    n for n in result.closest if n not in result.holders
                ][: want - holders]
                procs = [
                    origin.ctx.spawn(
                        origin._rpc(
                            peer,
                            T_DHT_STORE,
                            {"k": key.raw, "r": [dict(r) for r in live]},
                            result,
                        ),
                        name=f"dht-repair:{origin.node_id}",
                    )
                    for peer in repairs
                ]
                for proc in procs:
                    yield proc.completion
        return result

    def __len__(self) -> int:
        return len(self.nodes)
