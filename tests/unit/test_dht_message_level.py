"""The message-level DHT tier: churn tolerance, the god-mode bugfix
sweep regressions, and the grep-guard keeping protocol paths honest.

Regression targets (PR 10's bugfix sweep):

1. ``DhtGLookupService.register/unregister`` used to wipe the whole
   store slot for a name across every node; now a record is a value
   and its expiry, a replaced or withdrawn binding is retired by the
   service and expires on the holders, and no node is ever left
   holding an empty ``[]``/``{}`` husk.
2. ``DhtNode.observe`` used to evict the LRU bucket resident
   unconditionally; now a full bucket pings the oldest resident first
   and only a timeout makes room (Kademlia ping-before-evict).
3. ``KademliaDht.put`` used to count unacked replicas as durable; now
   a put's result carries the *acked* count and under-replication is
   measured.
"""

import inspect

import pytest

from repro.naming.names import GdpName
from repro.routing.dht import (
    RECORD_TTL,
    DhtNode,
    KademliaDht,
    make_record,
    value_principal,
)
from repro.routing.dht_glookup import DhtGLookupService, _DhtTable
from repro.routing.glookup import GLookupService
from repro.sim import SimNetwork, build_dht


def name(i: int) -> GdpName:
    import hashlib

    return GdpName(hashlib.sha256(b"dht-msg:%d" % i).digest())


def key_of(i: int) -> GdpName:
    import hashlib

    return GdpName(hashlib.sha256(b"dht-msg-key:%d" % i).digest())


def holders_of(dht: KademliaDht, key: GdpName) -> list:
    """God-mode holder census (test harness, not protocol code)."""
    return [
        node for node in dht.nodes.values() if node.store.get(key)
    ]


@pytest.fixture()
def ring():
    return build_dht(SimNetwork(), [name(i) for i in range(8)], k=4)


class TestMessageLevelProtocol:
    def test_put_get_travels_as_pdus(self, ring, run_dht):
        """put/get cost real lookup-plane RPCs, not dict reads."""
        ring.metrics.counter("dht.messages").reset()
        via = sorted(ring.nodes)[0]
        run_dht(ring, ring.put_proc(via, key_of(1), b"payload"))
        assert ring.metrics.counter("dht.messages").value > 0
        sent = ring.metrics.counter("dht.messages").value
        got = run_dht(ring, ring.get_proc(sorted(ring.nodes)[3], key_of(1)))
        assert b"payload" in got.values
        assert ring.metrics.counter("dht.messages").value > sent

    def test_put_replicates_to_k_holders(self, ring, run_dht):
        via = sorted(ring.nodes)[0]
        put = run_dht(ring, ring.put_proc(via, key_of(2), b"replicated"))
        assert put.acked >= ring.k
        assert len(holders_of(ring, key_of(2))) >= ring.k

    def test_get_survives_k_minus_1_holder_crashes(self, ring, run_dht):
        via = sorted(ring.nodes)[0]
        run_dht(ring, ring.put_proc(via, key_of(3), b"durable"))
        killed = []
        for node in holders_of(ring, key_of(3)):
            if node.name != via and len(killed) < ring.k - 1:
                node.crash()
                killed.append(node)
        assert len(killed) == ring.k - 1
        assert b"durable" in run_dht(ring, ring.get_proc(via, key_of(3))).values
        for node in killed:
            node.restart()

    def test_lookup_repairs_under_replication(self, ring, run_dht):
        """A get that observes missing holders re-stores on the closest
        responsive non-holders (Kademlia caching as churn repair)."""
        via = sorted(ring.nodes)[0]
        run_dht(ring, ring.put_proc(via, key_of(4), b"repairable"))
        victims = [n for n in holders_of(ring, key_of(4)) if n.name != via]
        survivor_count = len(holders_of(ring, key_of(4))) - len(victims[:2])
        for node in victims[:2]:
            node.store.pop(key_of(4))  # silent data loss, not a crash
        got = run_dht(ring, ring.get_proc(via, key_of(4)))
        assert b"repairable" in got.values
        assert len(holders_of(ring, key_of(4))) > survivor_count

    def test_unresponsive_peer_demoted_after_timeout(self, ring, run_dht):
        via = sorted(ring.nodes)[0]
        victim = sorted(ring.nodes)[5]
        ring.nodes[victim].crash()
        before = ring.metrics.counter("dht.demotions").value
        run_dht(ring, ring.get_proc(via, key_of(5)))
        assert ring.metrics.counter("dht.timeouts").value > 0
        assert ring.metrics.counter("dht.demotions").value > before
        ring.nodes[victim].restart()

    def test_graceful_leave_hands_records_off(self, ring, run_dht):
        via = sorted(ring.nodes)[0]
        run_dht(ring, ring.put_proc(via, key_of(6), b"handed-off"))
        leaver = next(
            n for n in holders_of(ring, key_of(6)) if n.name != via
        )
        survivors_before = {
            node.name for node in holders_of(ring, key_of(6))
        } - {leaver.name}
        run_dht(ring, ring.leave_proc(leaver.name))
        assert leaver.name not in ring.nodes
        after = {node.name for node in holders_of(ring, key_of(6))}
        assert after >= survivors_before
        got = run_dht(ring, ring.get_proc(via, key_of(6)))
        assert b"handed-off" in got.values

    def test_concurrent_operations_count_their_own_rpcs(self, run_dht):
        """Two lookups through one home node at once: each reports the
        RPCs it sent, so the service's ``dht.messages`` counter adds up
        to what actually went on the wire instead of counting the
        overlap twice."""
        dht = build_dht(SimNetwork(), [name(i) for i in range(32)], k=8)
        service = DhtGLookupService(
            "global", dht, sorted(dht.nodes)[0],
            verify_on_register=False,
            clock=lambda: dht.net.sim.now,
        )
        counted = service.metrics.counter("dht.messages")
        ctx = dht.net.ctx

        def both():
            lookups = [ctx.spawn(service.lookup(key_of(i))) for i in (50, 51)]
            for lookup in lookups:
                yield lookup.completion

        sent = dht.metrics.counter("dht.messages").value
        run_dht(dht, both())
        assert dht.metrics.counter("dht.messages").value > sent
        assert counted.value == dht.metrics.counter("dht.messages").value - sent


def route_entry(seed: bytes, expires_at: float, covers: GdpName | None = None):
    """An unverified but decodable entry advertised by a principal
    derived from *seed*, for *covers* (default: the principal's own
    name)."""
    from repro.crypto import SigningKey
    from repro.naming import make_server_metadata
    from repro.routing.glookup import RouteEntry

    key = SigningKey.from_seed(seed)
    metadata = make_server_metadata(key, key.public)
    return RouteEntry(
        covers if covers is not None else metadata.name,
        router=name(0),
        principal=metadata.name,
        principal_metadata=metadata,
        rtcert=None,
        chain=None,
        router_metadata=None,
        expires_at=expires_at,
    )


class TestRegisterUnregisterVersioned:
    """Bugfix 1: bindings change through the service, never by a store
    wipe; a record is a value and its expiry."""

    def _service(self, ring):
        return DhtGLookupService(
            "global", ring, sorted(ring.nodes)[0],
            verify_on_register=False,
            clock=lambda: ring.net.sim.now,
        )

    def test_tombstone_masks_only_its_principal(self, ring, run_dht):
        """Unregistering one principal masks that principal's value
        alone: its copies stay on the holders until they expire, but
        the service's lookup skips them, while the other principal's
        value stays both held and found."""
        service = self._service(ring)
        capsule = key_of(10)
        a = route_entry(b"dht-msg-d", service.now + 60.0, capsule)
        b = route_entry(b"dht-msg-e", service.now + 60.0, capsule)
        service.register(a)
        service.register(b)
        ring.net.sim.run()
        a_digest = value_principal(a.to_wire())
        b_digest = value_principal(b.to_wire())
        service.unregister(capsule, a.principal)
        ring.net.sim.run()
        holders = holders_of(ring, capsule)
        assert holders
        # No wipe: both values are still held where they were put.
        assert all(
            a_digest in node.store[capsule] and b_digest in node.store[capsule]
            for node in holders
        )
        assert run_dht(ring, service.lookup(capsule)) == [b]
        assert service.peek(capsule) == [b]

    def test_service_unregister_leaves_other_principals(self, ring, run_dht):
        """Unregistering one principal's binding leaves the other's in
        the service's lookup, and leaves no empty slot on any holder."""
        service = self._service(ring)
        capsule = key_of(13)
        a = route_entry(b"dht-msg-a", service.now + 60.0, capsule)
        b = route_entry(b"dht-msg-b", service.now + 60.0, capsule)
        service.register(a)
        service.register(b)
        ring.net.sim.run()  # publishes replicate in the background
        found = run_dht(ring, service.lookup(capsule))
        assert sorted(e.principal for e in found) == sorted(
            [a.principal, b.principal]
        )
        service.unregister(capsule, a.principal)
        assert run_dht(ring, service.lookup(capsule)) == [b]
        assert service.peek(capsule) == [b]
        assert capsule in service.names()
        for node in holders_of(ring, capsule):
            assert node.store[capsule], "empty slot husk left behind"

    def test_reregistration_replaces_binding(self, ring, run_dht):
        """A principal's new binding replaces its old one in the
        service's lookup at once, though the old value's copies live on
        the holders until they expire."""
        service = self._service(ring)
        capsule = key_of(11)
        old = route_entry(b"dht-msg-c", service.now + 20.0, capsule)
        new = route_entry(b"dht-msg-c", service.now + 25.0, capsule)
        service.register(old)
        ring.net.sim.run()
        assert run_dht(ring, service.lookup(capsule)) == [old]
        service.register(new)
        ring.net.sim.run()
        assert run_dht(ring, service.lookup(capsule)) == [new]
        # Re-registering the identical binding does not retire it.
        service.register(new)
        assert run_dht(ring, service.lookup(capsule)) == [new]

    def test_no_empty_husk_after_expiry(self):
        node = DhtNode(SimNetwork(), name(0))  # local store semantics
        key = key_of(12)
        node.merge_record(key, make_record(b"short-lived", 5.0))
        assert node.store[key]
        node.cull_expired(now=100.0)
        assert key not in node.store  # deleted, not parked as {} husk

    def test_far_future_record_lapses_one_ttl_after_arrival(self, ring, run_dht):
        """A member cannot make holders keep a record longer than one
        RECORD_TTL past its arrival by writing a far-future expiry."""
        via = sorted(ring.nodes)[1]
        key = key_of(14)
        squatter = make_record(b"squatter", ring.net.sim.now + 10**6)
        run_dht(ring, ring.put_records_proc(via, key, [squatter]))
        assert len(holders_of(ring, key)) >= ring.k
        # One TTL, plus the expiry wheel's one-second granularity.
        ring.net.sim.run(until=ring.net.sim.now + RECORD_TTL + 1.0)
        for node in ring.nodes.values():
            node.cull_expired()
        assert holders_of(ring, key) == []


class TestDhtBackedSurface:
    """A DHT-backed service is the GLookupService policy over the DHT
    and nothing else: no packed tables behind it, and no inherited
    method that quietly acts on one."""

    def _service(self, ring):
        return DhtGLookupService(
            "global", ring, sorted(ring.nodes)[0],
            verify_on_register=False,
            clock=lambda: ring.net.sim.now,
        )

    def test_allocates_no_packed_tables(self, ring, monkeypatch):
        from repro.routing import glookup

        def refuse(*args, **kwargs):
            raise AssertionError("a DHT-backed service built a packed table")

        for packed in ("PackedMap", "_EvidencePool", "ExpiryWheel"):
            monkeypatch.setattr(glookup, packed, refuse)
        service = self._service(ring)
        assert len(service) == 0
        with pytest.raises(AttributeError):
            service.memory_bytes()  # a packed-table figure: not defined here

    def test_plant_and_purge_act_on_the_home_replica(self, ring, run_dht):
        service = self._service(ring)
        entry = route_entry(b"dht-msg-planted", service.now + 5.0)
        filed_under = key_of(40)  # not the name the evidence covers
        service.plant(filed_under, entry)
        assert service.peek(filed_under) == [entry]
        assert run_dht(ring, service.lookup(filed_under)) == [entry]
        assert filed_under in service.names()
        home = ring.nodes[service.home]
        assert filed_under in home.store
        assert service.purge_expired(service.now + 60.0) == 1
        assert filed_under not in home.store


class TestPingBeforeEvict:
    """Bugfix 2: a full bucket pings the oldest resident; only a
    timeout makes room."""

    def _crowd(self, observer: GdpName, index: int, count: int):
        """Names landing in *observer*'s bucket ``index``."""
        base = int.from_bytes(observer.raw, "big")
        lo = 1 << index
        return [
            GdpName((base ^ (lo + i)).to_bytes(32, "big"))
            for i in range(count)
        ]

    def test_detached_node_keeps_oldest(self):
        # Freshly observed residents are not stale, so none is pinged.
        node = DhtNode(SimNetwork(), name(0), k=2)
        crowd = self._crowd(node.name, 5, 3)
        for peer in crowd:
            node.observe(peer)
        bucket = node.buckets[5]
        assert bucket == crowd[:2], "oldest resident was blindly evicted"
        assert crowd[2] in node.replacements[5]

    def test_live_oldest_survives_ping(self):
        dht = build_dht(SimNetwork(), [name(i) for i in range(4)], k=8)
        observer = dht.nodes[sorted(dht.nodes)[0]]
        index, bucket, crowd = self._full_bucket(dht, observer)
        oldest = bucket[0]
        observer.last_seen[oldest] = -1e9  # stale enough to ping
        newcomer = crowd[-1]
        observer.observe(newcomer, addr=dht.nodes[sorted(dht.nodes)[1]].node_id)
        dht.net.sim.run(until=dht.net.sim.now + 5.0)
        assert oldest in observer.buckets[index], (
            "responsive oldest resident was evicted"
        )
        assert newcomer not in observer.buckets[index]

    def test_dead_oldest_evicted_and_replaced(self):
        dht = build_dht(SimNetwork(), [name(i) for i in range(4)], k=8)
        observer = dht.nodes[sorted(dht.nodes)[0]]
        index, bucket, crowd = self._full_bucket(dht, observer)
        oldest = bucket[0]
        dead = dht.nodes.get(oldest)
        if dead is not None:
            dead.crash()
        observer.last_seen[oldest] = -1e9
        newcomer = crowd[-1]
        observer.observe(newcomer, addr=observer.node_id)
        dht.net.sim.run(until=dht.net.sim.now + 5.0)
        assert oldest not in observer.buckets[index]
        assert newcomer in observer.buckets[index], (
            "replacement-cache candidate not promoted"
        )
        if dead is not None:
            dead.restart()

    def _full_bucket(self, dht, observer):
        """Stuff one real peer's bucket full of synthetic residents so
        the next observe overflows it; returns (index, bucket, crowd)."""
        peer = dht.nodes[sorted(dht.nodes)[1]]
        index = observer._bucket_index(peer.name)
        crowd = [peer.name] + [
            n
            for n in self._crowd(observer.name, index, observer.k + 4)
            if observer._bucket_index(n) == index and n != peer.name
        ]
        for resident in crowd[: observer.k]:
            observer.observe(resident, addr=peer.node_id)
        bucket = observer.buckets[index]
        assert len(bucket) == observer.k
        # Make the real (answerable) peer the LRU resident.
        bucket.remove(peer.name)
        bucket.insert(0, peer.name)
        # Point every synthetic resident's address at the real peer so
        # pings have somewhere to go; the *oldest* is what matters.
        return index, bucket, crowd


class TestAckedReplicaCounting:
    """Bugfix 3: put returns acked replicas; under-replication is a
    counted metric, never silently absorbed."""

    def test_healthy_put_acks_k(self, ring, run_dht):
        before = ring.metrics.counter("dht.under_replicated").value
        via = sorted(ring.nodes)[0]
        put = run_dht(ring, ring.put_proc(via, key_of(20), b"healthy"))
        assert put.acked >= ring.k
        assert ring.metrics.counter("dht.under_replicated").value == before

    def test_lonely_put_reports_one_honest_replica(self, ring, run_dht):
        via = sorted(ring.nodes)[0]
        for other, node in ring.nodes.items():
            if other != via:
                node.crash()
        before = ring.metrics.counter("dht.under_replicated").value
        put = run_dht(ring, ring.put_proc(via, key_of(21), b"lonely"))
        assert put.acked == 1, "unacked replicas were counted as durable"
        assert ring.metrics.counter("dht.under_replicated").value == before + 1
        for node in ring.nodes.values():
            node.restart()


class TestGrepGuard:
    """Zero god-mode reads on protocol paths: put/get/register/serve
    never reach into other nodes' state through ``dht.nodes``.  The one
    sanctioned use is ``_entry_node`` (the caller's own access point).
    """

    PROTOCOL = [
        KademliaDht.put_records_proc,
        KademliaDht.put_proc,
        KademliaDht.get_proc,
        DhtNode._on_pdu,
        DhtNode._serve,
        DhtNode.iter_find,
        DhtNode._rpc,
        DhtNode.observe,
        DhtNode.merge_record,
        GLookupService.register,
        GLookupService.unregister,
        GLookupService.lookup,
        _DhtTable.store,
        _DhtTable.drop,
        _DhtTable.fetch,
        _DhtTable._publish,
        _DhtTable.republish_proc,
    ]

    FORBIDDEN = ("self.nodes[", "dht.nodes", ".nodes.values()", ".nodes.items()")

    def test_no_god_mode_reads(self):
        for fn in self.PROTOCOL:
            source = inspect.getsource(fn)
            for needle in self.FORBIDDEN:
                assert needle not in source, (
                    f"{fn.__qualname__} reads global DHT state "
                    f"({needle!r}) on a protocol path"
                )

    def test_entry_node_is_the_only_sanctioned_access(self):
        source = inspect.getsource(KademliaDht._entry_node)
        assert "self.nodes[via]" in source

    #: spellings of the back-compat layer deleted in PR 16, of the six
    #: per-suite bench harnesses folded into ``repro.bench`` (PR 18), and
    #: of the second durable engine and second resolution walk (PR 19)
    REMOVED = (
        "def stats_", "DeprecationWarning", "legacy_shape",
        "add_delivery_hook", "full_sync_once",
        "bench_commit", "bench_routing", "bench_storage",
        "bench_replication", "repro.loadgen", "def check_regression",
        "FileStore", "storage_engine", "_first_async_service",
        "asynchronous =",
        # the second spelling of the substrate (PR 23)
        "self.sim.", ".network.sim", "def sim(",
        # the hand-written write paths beside DataCapsule.admit and
        # StorageBackend.append_entries
        "def append_record", "def append_heartbeat", "def _persist",
        "def append_many", "_replicate_payload", "def _append_entries",
        # anti-entropy's own write path beside DataCapsule.admit_fetched
        "def _absorb",
        # the DHT beside the substrate: its private simulator's drive-or-
        # spawn fork, the hook it never used, the flag only it read
        "_drive_or_spawn", "midrun", "resolve_peer", "self.running",
        # the second write shape: one-record write ops and per-record
        # pushes with a server-built proof, beside the run
        "def _op_append(", "def _op_replicate(", "def _push_proof",
        "def accept_pushed",
        # the second and third read shapes: a point read and a tip read
        # beside the one verified range
        "def _op_read(", "def _op_latest(",
        # the store's point-read path, its cross-call read caches and
        # the on/off options nothing needed; the unsigned-response switch
        "def read_record(", "_sparse_seek", "tier_cache", "sync_index",
        "auto_compact", "sign_responses",
        # the unattested way into a capsule beside admit / admit_fetched,
        # its shape-check switch and the replay that used it
        "def insert(", "enforce_strategy", "replay_entry",
        # the unverified ways to open a DataCapsule-server's reply beside
        # open_response, and the client switch that skipped verification
        "with_server", "def _unwrap", "def _open(", "self.verify =",
        # the hosting ops beside the one owner-signed placement (and the
        # hand-built preimage of the first), the catalog's lossy expiry
        # codec, and the Strauss ladder's table beside the combs
        "def _op_unhost", "def _op_sync_now", "gdp.unhost", "def _ms(",
        "q_table",
        # the DHT record's unsigned principal, version and tombstone
        # flag, and the entanglement library nothing called
        'record["v"]', 'record["p"]', '.get("t")', "capsule.entanglement",
        # hosting state kept beside the stored hosting record, the second
        # name for a server's catalog, and the catalog-capsule library
        # nothing called
        "placement_versions", "current_catalog", "routing.catalog",
        "CatalogBuilder", "def store_metadata",
        # the client's record copies: a read stored into the reader's
        # capsule, and its re-verification of what it had kept
        "def admit_range", "def verify_everything",
        # the store's persisted sync index: its read, the recovery seeding
        # and cross-check, its second digest per record and its packing
        "def sync_leaves", "seed_sync_leaves", "record_wire_digest",
        "_pack_leaves", "index_mismatches",
        # the index's sidecar file and the crash point between it and the
        # seal's manifest commit
        ".idx", "seal.index_written",
        # the commit front's unsigned submit relay and its counter
        "commit.routed",
        # the frame walk that checked no CRC (compaction rewrote rot
        # through it), and a bench copy that read payloads from a replica
        "_iter_frames", "_crc_at", "_rebuilt_copy",
        # private tallies kept beside the metrics registry: the sync
        # session and its knobs, the DHT's ring stats, the opt-in QoS
        # tracker; and the second opener of sibling replies
        "SyncSession", "SyncConfig", "session_for", "DhtStats",
        "QosTracker", "ProviderStats", "import _reply",
    )

    def test_back_compat_layer_stays_deleted(self):
        import pathlib

        import repro

        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            source = path.read_text()
            for needle in self.REMOVED:
                assert needle not in source, f"{path}: {needle!r} is back"


class TestLayering:
    """``repro.runtime`` is the whole substrate and ``repro.sim`` a leaf
    implementing it: only the simulation drivers know the simulator."""

    #: packages/modules allowed to import ``repro.sim`` and hold ``.sim``
    DRIVERS = ("sim", "simtest", "bench", "cli.py", "__init__.py")
    #: what ``repro.runtime`` may import from the rest of ``repro``
    RUNTIME_MAY_IMPORT = (
        "repro.runtime", "repro.errors", "repro.encoding", "repro.crypto",
        "repro.routing.pdu",
    )

    @staticmethod
    def modules():
        import ast
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            yield rel, ast.walk(ast.parse(path.read_text()))

    @staticmethod
    def imported(node):
        """Absolute module names an import statement reaches."""
        import ast

        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            return [f"{node.module}.{alias.name}" for alias in node.names]
        return []

    def test_only_drivers_know_the_simulator(self):
        import ast

        for rel, nodes in self.modules():
            if rel.split("/")[0] in self.DRIVERS:
                continue
            for node in nodes:
                for name in self.imported(node):
                    assert not (name + ".").startswith("repro.sim."), (
                        f"{rel}:{node.lineno} imports {name}"
                    )
                if isinstance(node, ast.Attribute) and node.attr == "sim":
                    raise AssertionError(
                        f"{rel}:{node.lineno} reaches through a .sim alias"
                    )

    def test_runtime_imports_no_element(self):
        for rel, nodes in self.modules():
            if not rel.startswith("runtime/"):
                continue
            for node in nodes:
                for name in self.imported(node):
                    if not name.startswith("repro."):
                        continue
                    assert (name + ".").startswith(
                        tuple(m + "." for m in self.RUNTIME_MAY_IMPORT)
                    ), f"{rel}:{node.lineno} imports {name}"


class TestOracleReplicationInvariant:
    """Self-test for the fib_glookup oracle's DHT extensions."""

    def _service(self):
        dht = build_dht(SimNetwork(), [name(i) for i in range(4)], k=2)
        home = sorted(dht.nodes)[0]
        return DhtGLookupService(
            "global", dht, home,
            verify_on_register=False,
            clock=lambda: dht.net.sim.now,
        )

    def test_under_replicated_report_flagged(self):
        from repro.simtest.oracles import _check_dht_tier

        service = self._service()
        probe = {
            "dht_replication": {
                "k": 2,
                "live_nodes": 4,
                "names": {"ab" * 32: 1},
            }
        }
        violations = _check_dht_tier("global", service, 0.0, probe)
        assert any(
            "under-replicated" in v.detail for v in violations
        )

    def test_healthy_report_passes(self):
        from repro.simtest.oracles import _check_dht_tier

        service = self._service()
        probe = {
            "dht_replication": {
                "k": 2,
                "live_nodes": 4,
                "names": {"ab" * 32: 2, "cd" * 32: 3},
            }
        }
        assert _check_dht_tier("global", service, 0.0, probe) == []

    def test_empty_slot_husk_flagged(self):
        from repro.simtest.oracles import _check_dht_tier

        service = self._service()
        node = next(iter(service.dht.nodes.values()))
        node.store[key_of(30)] = {}
        violations = _check_dht_tier("global", service, 0.0, {})
        assert any("empty record slot" in v.detail for v in violations)
