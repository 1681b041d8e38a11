"""Invariant oracles: what must hold at quiesce, no matter the faults.

Every oracle checks a **safety** property — "nothing wrong survived" —
never liveness.  Records can be lost forever (a PDU dropped before any
server stored it leaves a permanent hole); that is an availability loss
the paper's threat model explicitly tolerates, so oracles *skip* holes
(:class:`HoleError`) and empty replicas.  What they must never see is
wrong data surviving verification, live replicas that disagree after a
full heal, unverifiable routing state, or a message the network cannot
account for.

Oracles register themselves in :data:`ORACLES` via the :func:`oracle`
decorator; :func:`run_oracles` runs them in sorted-name order (so
reports are deterministic) and returns the collected
:class:`Violation`\\ s.  An oracle takes the finished
:class:`~repro.simtest.world.EpisodeWorld` and returns a list of
violations — every diagnostic it emits must be a pure function of the
episode seed (node ids, seqnos, digests: yes; raw correlation ids or
wall-clock times: never), so a failing seed reproduces its report
byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.caapi.commit_service import (
    NO_PRECONDITION,
    read_committed_entry,
    shard_of,
)
from repro.capsule import DataCapsule
from repro.capsule.proofs import build_position_proof
from repro.errors import (
    BranchError,
    GdpError,
    HoleError,
    RecordNotFoundError,
)
from repro.naming.metadata import MODE_SSW
from repro.routing.dht_glookup import DhtGLookupService
from repro.routing.glookup import RouteEntry
from repro.server.storage import replay

__all__ = ["Violation", "ORACLES", "oracle", "run_oracles"]


@dataclass(frozen=True)
class Violation:
    """One invariant violation with a deterministic diagnostic."""

    oracle: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.oracle}: {self.subject}: {self.detail}"


#: the oracle registry: name -> check function (world -> violations)
ORACLES: dict[str, Callable] = {}


def oracle(name: str) -> Callable:
    """Register a check function under *name* (decorator)."""

    def register(fn: Callable) -> Callable:
        ORACLES[name] = fn
        return fn

    return register


def run_oracles(world, *, names: Iterable[str] | None = None) -> list[Violation]:
    """Run the selected oracles (default: all, in sorted-name order)."""
    selected = sorted(ORACLES) if names is None else list(names)
    violations: list[Violation] = []
    for name in selected:
        violations.extend(ORACLES[name](world))
    return violations


def _hosted_capsules(world):
    """Yield ``(server, capsule)`` for every replica of the episode's
    capsule, flagging replicas that lost their hosting state."""
    for server in world.servers:
        hosted = server.hosted.get(world.metadata.name)
        if hosted is not None:
            yield server, hosted.capsule


@oracle("hash_chain")
def check_hash_chain(world) -> list[Violation]:
    """Hash-chain + heartbeat integrity per replica (§IV, §V-A).

    Every stored heartbeat must carry a valid writer signature, and a
    hole-free replica's full history must verify end-to-end.  Holes are
    availability loss and are skipped; a signature or chain failure
    means tampered data survived server-side validation — never
    acceptable.  (The walk follows digests, so a branch never stops it:
    :func:`check_read_proof` judges branches.)
    """
    violations = []
    for server, capsule in _hosted_capsules(world):
        for heartbeat in capsule.heartbeats():
            try:
                # Strict mode: our writers only emit canonical low-S
                # signatures, so a surviving high-S variant means
                # something malleated a stored heartbeat in flight.
                heartbeat.verify(capsule.writer_key, require_low_s=True)
            except GdpError as exc:
                violations.append(Violation(
                    "hash_chain",
                    f"{server.node_id}/hb{heartbeat.seqno}",
                    f"stored heartbeat fails verification: {exc}",
                ))
        if capsule.latest_heartbeat is None or capsule.holes():
            continue  # empty or holed replica: nothing to chain-walk
        try:
            capsule.verify_history()
        except (HoleError, RecordNotFoundError):
            continue  # tip missing: availability loss
        except GdpError as exc:
            violations.append(Violation(
                "hash_chain",
                server.node_id,
                f"history fails verification: {type(exc).__name__}: {exc}",
            ))
    return violations


@oracle("read_proof")
def check_read_proof(world) -> list[Violation]:
    """Read-proof verifiability: every record a replica would serve must
    come with a position proof that verifies against the writer key
    (§V: readers trust proofs, not servers), and a strict-single-writer
    replica must hold one record per seqno."""
    violations = []
    for server, capsule in _hosted_capsules(world):
        for seqno in capsule.seqnos():
            try:
                proof = build_position_proof(capsule, seqno)
                proof.verify_record(capsule.get(seqno), capsule.writer_key)
            except (HoleError, RecordNotFoundError):
                continue  # proof path crosses a hole: cannot serve, ok
            except BranchError as exc:
                # Every stored record is attested, and a strict single
                # writer's heartbeats attest one record per seqno, so a
                # branch means an unattested record got in.  QSW may
                # branch by design (§VI-C): readers use the branch API.
                if capsule.writer_mode == MODE_SSW:
                    violations.append(Violation(
                        "read_proof",
                        f"{server.node_id}/record{seqno}",
                        f"single-writer replica is branched: {exc}",
                    ))
            except GdpError as exc:
                violations.append(Violation(
                    "read_proof",
                    f"{server.node_id}/record{seqno}",
                    f"unverifiable proof: {type(exc).__name__}: {exc}",
                ))
    return violations


@oracle("convergence")
def check_convergence(world) -> list[Violation]:
    """Anti-entropy convergence + durability (§V-A, §VI-B).

    After the heal phase every live replica must hold the same record
    set, and every record acknowledged under ``acks=all`` must be on
    every live replica.
    """
    violations = []
    live = [
        (server, capsule)
        for server, capsule in _hosted_capsules(world)
        if not server.crashed
    ]
    if not live:
        return [Violation(
            "convergence", "episode", "no live replica survived the heal"
        )]
    reference_server, reference = live[0]
    reference_summary = reference.canonical_summary()
    for server, capsule in live[1:]:
        summary = capsule.canonical_summary()
        if summary != reference_summary:
            violations.append(Violation(
                "convergence",
                f"{reference_server.node_id}~{server.node_id}",
                f"replicas diverged after heal: "
                f"{len(reference_summary)} vs {len(summary)} seqnos, "
                f"tips {reference.last_seqno} vs {capsule.last_seqno}",
            ))
    for seqno in world.durable_seqnos:
        for server, capsule in live:
            if seqno not in capsule.seqnos():
                violations.append(Violation(
                    "convergence",
                    f"{server.node_id}/record{seqno}",
                    "record acknowledged with acks=all is missing",
                ))
    return violations


@oracle("fib_glookup")
def check_fib_glookup(world) -> list[Violation]:
    """FIB / GLookupService consistency (§VII).

    FIB next hops and attachment bindings must point at adjacent nodes
    (a router can only forward over its own links), and every live
    GLookupService entry must still carry verifiable delegation
    evidence — a forged or corrupted entry surviving in routing state is
    a safety violation even if no PDU happened to use it.
    """
    violations = []
    now = world.net.sim.now
    for router in world.routers:
        adjacent = {id(node) for node in router.neighbors()}
        for name, node in sorted(
            router.attached.items(), key=lambda item: item[0].raw
        ):
            if id(node) not in adjacent:
                violations.append(Violation(
                    "fib_glookup",
                    f"{router.node_id}/attached/{name.human()}",
                    f"attachment binding points at non-adjacent "
                    f"node {node.node_id}",
                ))
        for name, (node, expiry) in sorted(
            router.fib.items(), key=lambda item: item[0].raw
        ):
            if expiry < now:
                continue  # expired cache entry: culled on next use
            if id(node) not in adjacent:
                violations.append(Violation(
                    "fib_glookup",
                    f"{router.node_id}/fib/{name.human()}",
                    f"FIB next hop {node.node_id} is not adjacent",
                ))
    for domain_name in sorted(world.topo.domains):
        glookup = world.topo.domains[domain_name].glookup
        for name in sorted(glookup.names(), key=lambda n: n.raw):
            for entry in glookup.peek(name):
                if entry.is_expired(now):
                    continue
                if entry.name != name:
                    violations.append(Violation(
                        "fib_glookup",
                        f"glookup:{domain_name}/{name.human()}",
                        f"entry filed under the wrong name "
                        f"({entry.name.human()})",
                    ))
                    continue
                try:
                    entry.verify(now=now)
                except Exception as exc:  # noqa: BLE001 — any failure counts
                    violations.append(Violation(
                        "fib_glookup",
                        f"glookup:{domain_name}/{name.human()}",
                        f"unverifiable route entry: "
                        f"{type(exc).__name__}: {exc}",
                    ))
        if isinstance(glookup, DhtGLookupService):
            violations.extend(
                _check_dht_tier(domain_name, glookup, now, world.probe)
            )
    return violations


def _check_dht_tier(
    domain_name: str,
    glookup: "DhtGLookupService",
    now: float,
    probe: dict,
) -> list[Violation]:
    """The DHT backing a global GLookup tier is untrusted key-value
    state (§VII) — but after an episode its *surviving* contents must
    still be the kind of garbage verification catches, never a
    well-formed entry that verifies under the wrong name.  Undecodable
    values and forged entries are tolerated in storage (routers skip
    them); an entry that decodes, verifies, and is filed under a key
    other than its own name would be silently routable and is flagged.

    Two structural invariants ride along: unregister/expiry must never
    leave an empty record slot behind (culling deletes drained keys), and the heal-phase replication snapshot (taken after
    one republish pass, while every overlay node was back up) must show
    every published name on at least ``min(k, live_nodes)`` holders —
    re-replication after churn actually happened, k-replica durability
    wasn't luck.
    """
    violations = []
    seen: set[bytes] = set()
    for node_name in sorted(glookup.dht.nodes, key=lambda n: n.raw):
        node = glookup.dht.nodes[node_name]
        for key in sorted(node.store, key=lambda n: n.raw):
            slot = node.store[key]
            if not slot:
                violations.append(Violation(
                    "fib_glookup",
                    f"dht:{domain_name}/{key.human()}",
                    f"empty record slot left behind on "
                    f"{node.node_id}",
                ))
                continue
            for digest in sorted(slot):
                if digest in seen:
                    continue  # replica copy already judged
                seen.add(digest)
                wire = slot[digest]["d"]
                try:
                    entry = RouteEntry.from_wire(wire)
                except Exception:  # noqa: BLE001 — undecodable: skipped
                    continue
                try:
                    entry.verify(now=now)
                except Exception:  # noqa: BLE001 — forged: skipped
                    continue
                if entry.name != key and not entry.is_expired(now):
                    violations.append(Violation(
                        "fib_glookup",
                        f"dht:{domain_name}/{key.human()}",
                        f"verified DHT entry filed under the wrong "
                        f"name ({entry.name.human()})",
                    ))
    report = probe.get("dht_replication") if probe else None
    if report:
        want = min(report["k"], report["live_nodes"])
        for name_hex, holders in sorted(report["names"].items()):
            if holders < want:
                violations.append(Violation(
                    "fib_glookup",
                    f"dht:{domain_name}/{name_hex[:16]}",
                    f"published name under-replicated after heal: "
                    f"{holders} holders < {want}",
                ))
    return violations


@oracle("reachability")
def check_reachability(world) -> list[Violation]:
    """Post-heal reachability (§VII: leases + client failover).

    The one liveness property the routing plane does promise: after
    every fault window closed and the fleet healed, the capsule must be
    reachable again.  The evidence is the heal-phase probe recorded in
    ``world.probe`` (taken while lease refresh was still running): a
    live anycast read must have succeeded, every subscription must have
    re-attached to a replica that is alive and hosting, and no
    duplicate push may ever have reached the application callback —
    duplicate *suppression* is the failover mechanism working, a
    duplicate in ``world.pushes`` is it failing.
    """
    violations = []
    probe = world.probe
    if not probe:
        # The scenario died before the heal finished; run_episode
        # reports that crash itself — there is no probe to judge.
        return violations
    live_names = {
        server.name
        for server in world.live_servers()
        if world.metadata.name in server.hosted
    }
    if live_names and not probe.get("read_ok"):
        violations.append(Violation(
            "reachability",
            "episode",
            f"post-heal read failed with live replicas up: "
            f"{probe.get('read_error', 'no result recorded')}",
        ))
    subscriptions = getattr(world.client, "_subscriptions", {})
    for capsule, sub in sorted(
        subscriptions.items(), key=lambda item: item[0].raw
    ):
        if live_names and (
            sub.server is None or sub.server not in live_names
        ):
            violations.append(Violation(
                "reachability",
                f"subscription/{capsule.human()}",
                "subscription is not attached to a live hosting "
                "replica after the heal",
            ))
    if len(world.pushes) != len(set(world.pushes)):
        duplicated = sorted(
            seqno
            for seqno in set(world.pushes)
            if world.pushes.count(seqno) > 1
        )
        violations.append(Violation(
            "reachability",
            "subscription/pushes",
            f"duplicate deliveries reached the callback: "
            f"seqnos {duplicated}",
        ))
    return violations


@oracle("storage_round_trip")
def check_storage_round_trip(world) -> list[Violation]:
    """Storage round-trip fidelity (ROADMAP item 3: the log *is* the
    replica).

    Every live replica's persisted log must rebuild — via
    ``load_entries`` alone, the crash-recovery path — to exactly the
    in-memory capsule state.  A record the server acknowledged but
    never persisted, a frame the replay refuses (one no heartbeat or
    stored successor attests, or that does not parse), or a stored
    phantom the capsule does not know about would all surface here:
    after a real crash the storage rebuild *becomes* the replica, so any
    drift between the two is silent data loss (or invention) waiting
    for the next restart.
    """
    violations = []
    for server, capsule in _hosted_capsules(world):
        if server.crashed:
            continue  # a dead replica's log is judged when it recovers
        rebuilt = DataCapsule(capsule.metadata, verify_metadata=False)
        _, refused = replay(rebuilt, server.storage.load_entries(capsule.name))
        if refused:
            violations.append(Violation(
                "storage_round_trip",
                server.node_id,
                f"{refused} stored frame(s) refused on replay",
            ))
            continue
        if rebuilt.canonical_summary() != capsule.canonical_summary():
            violations.append(Violation(
                "storage_round_trip",
                server.node_id,
                f"persisted log rebuilds to a different replica: "
                f"{len(rebuilt.seqnos())} stored vs "
                f"{len(capsule.seqnos())} in-memory seqnos, tips "
                f"{rebuilt.last_seqno} vs {capsule.last_seqno}",
            ))
    return violations


@oracle("commit_order")
def check_commit_order(world) -> list[Violation]:
    """Per-shard commit linearizability on the sharded commit plane
    (§V-A: the multi-writer serialization point).

    Only episodes with a commit plane (the ``"commit"`` profile) are
    judged; everything else returns clean.  Faults may make individual
    submissions *fail* — that is availability loss — but every commit a
    shard **acknowledged** must satisfy, at quiesce:

    - shard-log seqnos are strictly increasing (one serial order);
    - every keyed commit landed in the shard that owns its key;
    - every CAS precondition equals the seqno it overwrote — judged in
      commit order, the compare-and-swap register's linearizability;
    - the version cache agrees with the log tip per key, and the
      committed counter with the log length;
    - every receipt a client was handed exists in the owning shard's
      log (no phantom acknowledgments), and every logged commit is
      stored on at least one replica with a matching provenance
      wrapper (no acknowledged-then-lost updates).
    """
    shards = getattr(world, "commit_shards", None)
    if not shards:
        return []
    violations = []
    n_shards = len(shards)
    for shard in shards:
        log = shard.commit_log
        seqnos = [entry["seqno"] for entry in log]
        if any(b <= a for a, b in zip(seqnos, seqnos[1:])):
            violations.append(Violation(
                "commit_order",
                shard.node_id,
                f"shard-log seqnos are not strictly increasing: {seqnos}",
            ))
        versions: dict[str, int] = {}
        for entry in log:
            key = entry["key"]
            if key is None:
                continue
            owner = shard_of(key, n_shards)
            if n_shards > 1 and owner != shard.shard_index:
                violations.append(Violation(
                    "commit_order",
                    f"{shard.node_id}/record{entry['seqno']}",
                    f"key {key!r} committed in shard "
                    f"{shard.shard_index}, owned by shard {owner}",
                ))
            if entry["expect"] != NO_PRECONDITION:
                overwritten = versions.get(key, 0)
                if entry["expect"] != overwritten:
                    violations.append(Violation(
                        "commit_order",
                        f"{shard.node_id}/record{entry['seqno']}",
                        f"CAS on {key!r} carried precondition "
                        f"{entry['expect']} but overwrote version "
                        f"{overwritten} (lost update)",
                    ))
            versions[key] = entry["seqno"]
        for key in sorted(versions):
            if shard.version_of(key) != versions[key]:
                violations.append(Violation(
                    "commit_order",
                    f"{shard.node_id}/{key}",
                    f"version cache says {shard.version_of(key)}, "
                    f"log tip for the key is {versions[key]}",
                ))
        committed = shard.metrics.counter("commit.committed").value
        if committed != len(log):
            violations.append(Violation(
                "commit_order",
                shard.node_id,
                f"committed counter {committed} != "
                f"{len(log)} logged commits",
            ))
    logged = {
        (shard.shard_index, entry["seqno"], entry["key"])
        for shard in shards
        for entry in shard.commit_log
    }
    for receipt in world.commit_receipts:
        if (receipt["shard"], receipt["seqno"], receipt["key"]) not in logged:
            violations.append(Violation(
                "commit_order",
                f"receipt/sub{receipt['submitter']}",
                f"acknowledged receipt (shard {receipt['shard']} "
                f"seqno {receipt['seqno']} key {receipt['key']!r}) "
                f"is missing from the shard log",
            ))
    for shard in shards:
        if shard._writer is None:
            continue  # plane never finished setup: nothing durable yet
        replicas = [
            server for server in world.servers
            if shard.capsule_name in server.hosted
        ]
        for entry in shard.commit_log:
            # A failed-then-retried append can leave branch siblings at
            # the same seqno (QSW divergence); the acknowledged commit
            # survives as long as *some* stored record at its seqno
            # carries the matching provenance wrapper.
            found = False
            for server in replicas:
                for record in server.stored_records(
                    shard.capsule_name, entry["seqno"]
                ):
                    try:
                        wrapped = read_committed_entry(record.payload)
                    except Exception:  # noqa: BLE001 — sibling garbage
                        continue
                    if (wrapped["key"] == entry["key"]
                            and wrapped["submitter"] == entry["submitter"]):
                        found = True
                        break
                if found:
                    break
            if not found:
                violations.append(Violation(
                    "commit_order",
                    f"{shard.node_id}/record{entry['seqno']}",
                    "acknowledged commit is on no replica "
                    "(acknowledged-then-lost update)",
                ))
    return violations


@oracle("conservation")
def check_conservation(world) -> list[Violation]:
    """Metrics conservation: on every link, at quiesce,
    ``sent == dropped + delivered`` — each message offered to a link was
    either dropped (link down, loss, fault middleware) or handed to the
    receiver; nothing vanishes unaccounted."""
    violations = []
    for link in world.net.links:
        sent = link.metrics.counter("net.sent").value
        dropped = link.metrics.counter("net.dropped").value
        delivered = link.metrics.counter("net.delivered").value
        if sent != dropped + delivered:
            violations.append(Violation(
                "conservation",
                f"link:{link.a.node_id}~{link.b.node_id}",
                f"sent {sent} != dropped {dropped} "
                f"+ delivered {delivered}",
            ))
    return violations
