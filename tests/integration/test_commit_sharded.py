"""Sharded commit plane: routing, CAS conflicts, provenance, receipts."""

import pytest

from repro.caapi import (
    CapsuleKVStore,
    CommitClient,
    CommitReceipt,
    CommitShard,
    ShardedCommitService,
    ShardMap,
    read_committed_entry,
    shard_of,
)
from repro.caapi.commit_service import build_submission
from repro.client import GdpClient
from repro.errors import CapsuleError, CommitConflictError, DelegationError


def build_plane(g, owner_keys, n_shards, writers=("alice", "bob", "carol")):
    """A plane of *n_shards* CommitShards behind one front, plus one
    GdpClient per writer label, all attached and ACL'd.  Returns
    ``(front, shards, clients)`` — callers still run ``setup()``."""
    shards = [CommitShard(g.net, f"shard{i}") for i in range(n_shards)]
    for i, shard in enumerate(shards):
        shard.attach(g.r_root if i % 2 == 0 else g.r_edge)
    front = ShardedCommitService(g.net, "commit_front", shards)
    front.attach(g.r_edge)
    clients = []
    for i, label in enumerate(writers):
        client = GdpClient(g.net, label, key=owner_keys(label.encode()))
        client.attach(g.r_edge if i % 2 == 0 else g.r_root)
        front.allow_writer(client.key.public)
        clients.append(client)

    def setup():
        yield from g.bootstrap()
        for shard in shards:
            yield shard.advertise()
        yield front.advertise()
        for client in clients:
            yield client.advertise()
        shard_map = yield from front.create(
            g.console, [g.server_root.metadata]
        )
        return shard_map

    return front, shards, clients, setup


class TestShardRouting:
    def test_keyed_submissions_land_in_owning_shard(self, mini_gdp, owner_keys):
        g = mini_gdp
        front, shards, (alice, *_), setup = build_plane(g, owner_keys, 4)

        def scenario():
            shard_map = yield from setup()
            shard_map.verify(front.key.public)
            commit = CommitClient(
                alice, front.name, coordinator_key=front.key.public
            )
            receipts = []
            for i in range(12):
                r = yield from commit.submit(
                    b"v%d" % i, key=f"user/{i}"
                )
                receipts.append((f"user/{i}", r))
            yield 1.0
            return shard_map, receipts

        shard_map, receipts = g.run(scenario())
        assert shard_map.shard_count == 4
        # Every receipt names the shard the key hashes to, and the
        # provenance wrapper in that shard's log carries the submitter.
        used = set()
        for key, receipt in receipts:
            expected_shard = shard_of(key, 4)
            assert receipt.shard == expected_shard
            used.add(expected_shard)
            entry = next(
                e for e in shards[expected_shard].commit_log
                if e["key"] == key
            )
            assert entry["seqno"] == receipt.seqno

        # 12 keys over 4 shards: the hash must actually spread them.
        assert len(used) > 1

    def test_wrong_shard_rejected_with_redirect(self, mini_gdp, owner_keys):
        g = mini_gdp
        front, shards, (alice, *_), setup = build_plane(g, owner_keys, 4)

        def scenario():
            yield from setup()
            key = "hot/item"
            owner = shard_of(key, 4)
            wrong = (owner + 1) % 4
            payload = build_submission(
                alice.key, shards[wrong].capsule_name, b"x", key=key
            )
            reply = yield alice.rpc(shards[wrong].name, payload)
            body = reply.get("body", reply)
            return owner, wrong, body

        owner, wrong, body = g.run(scenario())
        assert body["ok"] is False
        assert body["wrong_shard"] is True
        assert body["shard"] == owner
        assert shards[wrong].metrics.counter("commit.rejected").value == 1
        assert shards[wrong].metrics.counter("commit.committed").value == 0

    def test_stale_map_self_heals(self, mini_gdp, owner_keys):
        """A client holding a rotated (stale) map gets ``wrong_shard``,
        refetches, and the submission still lands."""
        g = mini_gdp
        front, shards, (alice, *_), setup = build_plane(g, owner_keys, 4)

        def scenario():
            shard_map = yield from setup()
            commit = CommitClient(
                alice, front.name, coordinator_key=front.key.public
            )
            yield from commit.fetch_map()
            # Simulate staleness: rotate the shard order so every keyed
            # route points at the wrong endpoint.
            commit._map = ShardMap(
                0,
                shard_map.services[1:] + shard_map.services[:1],
                shard_map.capsules[1:] + shard_map.capsules[:1],
            )
            receipt = yield from commit.submit(b"healed", key="some/key")
            return receipt, commit.shard_map

        receipt, healed_map = g.run(scenario())
        assert receipt.shard == shard_of("some/key", 4)
        # The retry refetched the authoritative (signed) map.
        assert healed_map.services == tuple(s.name for s in shards)

    def test_front_takes_no_submit(self, mini_gdp, owner_keys):
        """Submitters route by the signed map; a ``submit`` sent to the
        front is an unknown op there and commits nothing."""
        g = mini_gdp
        front, shards, (alice, *_), setup = build_plane(g, owner_keys, 2)

        def scenario():
            shard_map = yield from setup()
            key = "via/front"
            capsule = shard_map.capsules[shard_map.shard_of(key)]
            payload = build_submission(
                alice.key, capsule, b"through-the-front", key=key
            )
            reply = yield alice.rpc(front.name, payload)
            yield 0.5
            return shard_map, reply.get("body", reply)

        shard_map, body = g.run(scenario())
        assert body["ok"] is False
        assert body["error_kind"] == "unknown_op"
        assert all(shard.version_of("via/front") == 0 for shard in shards)
        for capsule in shard_map.capsules:
            assert len(g.server_root.hosted[capsule].capsule) == 0

    def test_tampered_shard_map_rejected(self, mini_gdp, owner_keys):
        g = mini_gdp
        front, shards, _clients, setup = build_plane(g, owner_keys, 2)

        def scenario():
            shard_map = yield from setup()
            return shard_map

        shard_map = g.run(scenario())
        forged = ShardMap(
            shard_map.version + 1,
            shard_map.services,
            shard_map.capsules,
            shard_map.signature,
        )
        with pytest.raises(DelegationError):
            forged.verify(front.key.public)


class TestOptimisticConcurrency:
    def test_conflict_carries_winning_seqno(self, mini_gdp, owner_keys):
        g = mini_gdp
        front, shards, (alice, bob, *_), setup = build_plane(g, owner_keys, 2)

        def scenario():
            yield from setup()
            a = CommitClient(alice, front.name)
            b = CommitClient(bob, front.name)
            first = yield from a.submit(b"a1", key="k", expect_seqno=0)
            try:
                yield from b.submit(b"b1", key="k", expect_seqno=0)
            except CommitConflictError as exc:
                conflict = exc
            else:
                raise AssertionError("expected a CommitConflictError")
            # Rebase onto the winning seqno and retry: must succeed.
            second = yield from b.submit(
                b"b1-rebased", key="k", expect_seqno=conflict.winning_seqno
            )
            return first, conflict, second

        first, conflict, second = g.run(scenario())
        assert conflict.key == "k"
        assert conflict.winning_seqno == first.seqno
        assert conflict.expected == 0
        assert second.seqno > first.seqno
        owning = shards[shard_of("k", 2)]
        assert owning.metrics.counter("commit.conflicts").value == 1

    def test_concurrent_race_exactly_one_winner(self, mini_gdp, owner_keys):
        """Two truly concurrent expect-0 submissions on one key: the
        shard's serialization order picks exactly one winner."""
        g = mini_gdp
        front, shards, (alice, bob, *_), setup = build_plane(g, owner_keys, 2)
        outcomes = []

        def racer(client):
            commit = CommitClient(client, front.name)
            try:
                receipt = yield from commit.submit(
                    b"race", key="contended", expect_seqno=0
                )
                outcomes.append(("ok", receipt.seqno))
            except CommitConflictError as exc:
                outcomes.append(("conflict", exc.winning_seqno))

        def scenario():
            yield from setup()
            p1 = g.net.sim.spawn(racer(alice), name="racer-a")
            p2 = g.net.sim.spawn(racer(bob), name="racer-b")
            yield p1.completion
            yield p2.completion

        g.run(scenario())
        kinds = sorted(kind for kind, _ in outcomes)
        assert kinds == ["conflict", "ok"]
        winning = next(v for kind, v in outcomes if kind == "ok")
        losing = next(v for kind, v in outcomes if kind == "conflict")
        assert losing == winning  # the conflict names the winner

    def test_cas_retry_loop_never_loses_updates(self, mini_gdp, owner_keys):
        """3 writers x 4 increments on one hot key through submit_cas:
        all 12 commit, and every committed precondition held at commit
        time (the chain of expects is exactly the chain of seqnos)."""
        g = mini_gdp
        front, shards, clients, setup = build_plane(g, owner_keys, 2)
        receipts = []

        def writer(client, label):
            commit = CommitClient(client, front.name)
            for i in range(4):
                receipt = yield from commit.submit_cas(
                    "hot", lambda expect: b"%s:%d" % (label, i)
                )
                receipts.append(receipt)

        def scenario():
            yield from setup()
            procs = [
                g.net.sim.spawn(writer(c, label.encode()), name=f"w-{label}")
                for c, label in zip(clients, ("a", "b", "c"))
            ]
            for proc in procs:
                yield proc.completion
            yield 1.0

        g.run(scenario())
        assert len(receipts) == 12  # nobody gave up: zero lost updates
        owning = shards[shard_of("hot", 2)]
        log = [e for e in owning.commit_log if e["key"] == "hot"]
        assert len(log) == 12
        # Per-key linearizability: each commit's precondition is the
        # previous commit's seqno.
        previous = 0
        for entry in log:
            assert entry["expect"] == previous
            previous = entry["seqno"]
        # the hot key really contended
        assert owning.metrics.counter("commit.conflicts").value > 0

    def test_forged_precondition_fails_signature(self, mini_gdp, owner_keys):
        """expect_seqno is inside the signed preimage: a relay that
        rewrites it invalidates the signature."""
        g = mini_gdp
        front, shards, (alice, *_), setup = build_plane(g, owner_keys, 1)

        def scenario():
            yield from setup()
            payload = build_submission(
                alice.key, shards[0].capsule_name, b"x", key="k",
                expect_seqno=0,
            )
            payload["expect_seqno"] = 7  # tampered in flight
            reply = yield alice.rpc(shards[0].name, payload)
            return reply.get("body", reply)

        body = g.run(scenario())
        assert body["ok"] is False
        assert "signature" in body["error"]
        assert shards[0].metrics.counter("commit.rejected").value == 1


class TestReceiptAndMetrics:
    def test_receipt_envelope_and_int_shim(self, mini_gdp, owner_keys):
        g = mini_gdp
        front, shards, (alice, *_), setup = build_plane(g, owner_keys, 2)

        def scenario():
            shard_map = yield from setup()
            commit = CommitClient(alice, front.name)
            receipt = yield from commit.submit(b"v", key="k")
            return shard_map, receipt

        shard_map, receipt = g.run(scenario())
        assert isinstance(receipt, CommitReceipt)
        assert receipt.seqno == 1
        assert receipt.acks >= 1
        assert receipt.shard == shard_map.shard_of("k")
        assert receipt.capsule == shard_map.capsules[receipt.shard]
        assert receipt.conflict is None
        assert (receipt == 1) is False  # an envelope, not an int
        with pytest.raises(TypeError):
            int(receipt)

    def test_metrics_registry_names(self, mini_gdp, owner_keys):
        g = mini_gdp
        front, shards, (alice, bob, *_), setup = build_plane(g, owner_keys, 1)

        def scenario():
            yield from setup()
            commit = CommitClient(alice, front.name)
            yield from commit.submit(b"v1", key="k", expect_seqno=0)
            try:
                other = CommitClient(bob, front.name)
                yield from other.submit(b"v2", key="k", expect_seqno=0)
            except CommitConflictError:
                pass

        g.run(scenario())
        snapshot = g.net.metrics.node("shard0").snapshot()
        assert snapshot["commit.committed"] == 1
        assert snapshot["commit.conflicts"] == 1
        assert shards[0].metrics.counter("commit.committed").value == 1
        assert shards[0].metrics.counter("commit.conflicts").value == 1
        assert shards[0].metrics.counter("commit.rejected").value == 0
        front_snap = g.net.metrics.node("commit_front").snapshot()
        assert front_snap["commit.map_served"] == 2

    def test_provenance_survives_sharding(self, mini_gdp, owner_keys):
        g = mini_gdp
        front, shards, (alice, bob, *_), setup = build_plane(g, owner_keys, 2)

        def scenario():
            shard_map = yield from setup()
            a = CommitClient(alice, front.name)
            b = CommitClient(bob, front.name)
            ra = yield from a.submit(b"from-alice", key="pa")
            rb = yield from b.submit(b"from-bob", key="pb")
            yield 1.0
            entries = {}
            for key, receipt in (("pa", ra), ("pb", rb)):
                record = yield from g.reader_client.read(
                    shard_map.capsules[receipt.shard], receipt.seqno
                )
                entries[key] = read_committed_entry(record.record.payload)
            return entries

        entries = g.run(scenario())
        assert entries["pa"]["submitter"] == owner_keys(b"alice").public.to_bytes()
        assert entries["pa"]["data"] == b"from-alice"
        assert entries["pa"]["key"] == "pa"
        assert entries["pa"]["shard"] == shard_of("pa", 2)
        assert entries["pb"]["submitter"] == owner_keys(b"bob").public.to_bytes()


class TestKVStoreOnCommitPlane:
    def test_multi_writer_store_converges(self, mini_gdp, owner_keys):
        """Two writers share one KV store through the commit plane; both
        sets of writes survive and reads converge on the same map."""
        g = mini_gdp
        front, shards, (alice, bob, *_), setup = build_plane(g, owner_keys, 2)

        def scenario():
            yield from setup()
            store_a = CapsuleKVStore(
                alice, g.console, [g.server_root.metadata],
                commit=CommitClient(alice, front.name),
            )
            store_b = CapsuleKVStore(
                bob, g.console, [g.server_root.metadata],
                commit=CommitClient(bob, front.name),
            )
            yield from store_a.put("city", "berkeley")
            yield from store_b.put("zip", "94720")
            yield from store_a.put("city", "oakland")  # overwrite own key
            yield 1.0
            view_a = yield from store_a.items()
            view_b = yield from store_b.items()
            return view_a, view_b

        view_a, view_b = g.run(scenario())
        assert view_a == view_b == {"city": "oakland", "zip": "94720"}

    def test_racing_writers_on_one_key_converge(self, mini_gdp, owner_keys):
        """Both writers blind-put the same key concurrently: the CAS
        loop absorbs the conflict (invalidate, rebase, retry) and both
        mutations commit — no lost update, last-in-serialization wins."""
        g = mini_gdp
        front, shards, (alice, bob, *_), setup = build_plane(g, owner_keys, 2)

        def put_via(client, value):
            store = CapsuleKVStore(
                client, g.console, [g.server_root.metadata],
                commit=CommitClient(client, front.name),
            )
            yield from store.put("shared", value)

        def scenario():
            yield from setup()
            p1 = g.net.sim.spawn(put_via(alice, "A"), name="kv-a")
            p2 = g.net.sim.spawn(put_via(bob, "B"), name="kv-b")
            yield p1.completion
            yield p2.completion
            yield 1.0
            reader = CapsuleKVStore(
                g.reader_client, g.console, [g.server_root.metadata],
                commit=CommitClient(g.reader_client, front.name),
            )
            value = yield from reader.get("shared")
            return value

        value = g.run(scenario())
        owning = shards[shard_of("shared", 2)]
        log = [e for e in owning.commit_log if e["key"] == "shared"]
        assert len(log) == 2  # both puts committed: nothing lost
        assert value in ("A", "B")

    def test_delete_through_plane(self, mini_gdp, owner_keys):
        g = mini_gdp
        front, shards, (alice, *_), setup = build_plane(g, owner_keys, 2)

        def scenario():
            yield from setup()
            store = CapsuleKVStore(
                alice, g.console, [g.server_root.metadata],
                commit=CommitClient(alice, front.name),
            )
            yield from store.put("k1", 1)
            yield from store.put("k2", 2)
            yield from store.delete("k1")
            yield 1.0
            keys = yield from store.keys()
            return keys

        assert g.run(scenario()) == ["k2"]

    def test_plane_requires_acl(self, mini_gdp, owner_keys):
        g = mini_gdp
        front, shards, _clients, setup = build_plane(g, owner_keys, 2)
        mallory = GdpClient(g.net, "mallory", key=owner_keys(b"mallory"))
        mallory.attach(g.r_root)

        def scenario():
            yield from setup()
            yield mallory.advertise()
            commit = CommitClient(mallory, front.name)
            try:
                yield from commit.submit(b"evil", key="k")
            except CapsuleError as exc:
                return str(exc)
            raise AssertionError("unauthorized submit went through")

        message = g.run(scenario())
        assert "ACL" in message or "not on the write" in message
