"""Merkle-delta anti-entropy edge cases: bootstrap, point divergence,
checkpoint boundaries, mid-batch partitions, and the O(missing)-bytes
property the protocol exists to provide."""

import random

from repro.adversary import StorageTamperer
from repro.capsule import CapsuleWriter, Record
from repro.capsule.capsule import run_wire
from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.naming import make_capsule_metadata
from repro.routing import GdpRouter, RoutingDomain
from repro.routing.pdu import T_DATA, T_RESPONSE, Pdu
from repro.runtime.dispatch import dispatch_op
from repro.runtime.middleware import DROP, DeliveryMiddleware
from repro.server import (
    AntiEntropyDaemon,
    DataCapsuleServer,
    SyncConfig,
    SyncSession,
    sync_once,
)
from repro.sim import SimNetwork


class TestDeltaSyncEdgeCases:
    def test_empty_replica_bootstrap(self, mini_gdp):
        """A replica that missed the entire history (placed, then
        partitioned before the first append) pulls everything in one
        round."""
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            link.fail()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(20):
                yield from writer.append(b"boot-%d" % i)
            yield 0.5
            link.recover()
            g.r_edge.flush_fib()
            g.r_root.flush_fib()
            fetched = yield from sync_once(
                g.server_root, metadata.name, g.server_edge.name
            )
            return metadata, fetched

        metadata, fetched = g.run(scenario())
        assert fetched == 20
        capsule = g.server_root.hosted[metadata.name].capsule
        assert capsule.last_seqno == 20
        assert capsule.holes() == []
        assert capsule.verify_history() == 20

    def test_single_record_divergence_mid_history(self, mini_gdp, stored_replica):
        """One record lost in the middle of a long shared prefix is
        found by bisection and fetched alone — not the whole prefix."""
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)
        session = SyncSession(
            capsule=None, peer=None  # filled by assertion reads only
        )

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(8):
                yield from writer.append(b"pre-%d" % i)
            yield 0.5
            link.fail()
            yield from writer.append(b"lost")  # seqno 9, root never sees it
            link.recover()
            g.r_edge.flush_fib()
            g.r_root.flush_fib()
            for i in range(7):
                yield from writer.append(b"post-%d" % i)
            yield 0.5
            fetched = yield from sync_once(
                g.server_root, metadata.name, g.server_edge.name,
                session=session,
            )
            return metadata, fetched

        metadata, fetched = g.run(scenario())
        assert fetched == 1
        assert session.records_fetched == 1
        assert session.rounds == 1
        assert session.batches == 1
        root = stored_replica(g.server_root, metadata.name)
        edge = g.server_edge.hosted[metadata.name].capsule
        assert root.get(9).payload == b"lost"
        assert root.canonical_summary() == edge.canonical_summary()
        assert root.verify_history() == 16

    def test_divergence_at_checkpoint_boundary(self, mini_gdp, stored_replica):
        """Losing exactly a checkpoint record (seqno a multiple of K
        under the ``checkpoint:K`` strategy) heals like any other seqno,
        and the healed history chain-walks through the checkpoint."""
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(strategy="checkpoint:8")
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(7):
                yield from writer.append(b"pre-%d" % i)
            yield 0.5
            link.fail()
            yield from writer.append(b"checkpoint-8")  # the checkpoint itself
            link.recover()
            g.r_edge.flush_fib()
            g.r_root.flush_fib()
            for i in range(8):
                yield from writer.append(b"post-%d" % i)
            yield 0.5
            fetched = yield from sync_once(
                g.server_root, metadata.name, g.server_edge.name
            )
            return metadata, fetched

        metadata, fetched = g.run(scenario())
        assert fetched == 1
        capsule = stored_replica(g.server_root, metadata.name)
        assert capsule.get(8).payload == b"checkpoint-8"
        assert capsule.holes() == []
        assert capsule.verify_history() == 16

    def test_partition_heal_mid_batch(self, mini_gdp):
        """Fetch batches dropped mid-transfer are retried with backoff;
        the round still converges and the session records the retries."""
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)
        dropped = {"n": 0}

        class DropFirstBatches(DeliveryMiddleware):
            def on_deliver(self, link_, sender, receiver, message, size):
                payload = getattr(message, "payload", None)
                if (
                    isinstance(payload, dict)
                    and payload.get("op") == "sync_fetch_batch"
                    and dropped["n"] < 2
                ):
                    dropped["n"] += 1
                    return DROP
                return None

        config = SyncConfig(
            batch_records=4, window=2,
            max_retries=3, backoff_base=0.05, backoff_max=0.2,
        )
        session = SyncSession(capsule=None, peer=None)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(4):
                yield from writer.append(b"pre-%d" % i)
            yield 0.5
            link.fail()
            for i in range(12):
                yield from writer.append(b"during-%d" % i)
            link.recover()
            g.r_edge.flush_fib()
            g.r_root.flush_fib()
            drop_first_batches = g.net.delivery.use(DropFirstBatches())
            fetched = yield from sync_once(
                g.server_root, metadata.name, g.server_edge.name,
                timeout=1.0, config=config, session=session,
            )
            g.net.delivery.remove(drop_first_batches)
            return metadata, fetched

        metadata, fetched = g.run(scenario())
        assert dropped["n"] == 2
        assert fetched == 12
        assert session.retries == 2
        assert session.failures == 0
        root = g.server_root.hosted[metadata.name].capsule
        edge = g.server_edge.hosted[metadata.name].capsule
        assert root.canonical_summary() == edge.canonical_summary()

    def test_fetch_batch_budget_is_clamped_to_one_frame(self, mini_gdp):
        """The requester picks ``max_bytes``, but the reply must fit one
        transport frame: asking for 1 TiB of three 6 MiB records (18 MiB,
        past the 16 MiB frame) serves only what ``MAX_RANGE_REPLY_BYTES``
        holds, and the requester re-queues the rest."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(3):
                yield from writer.append(bytes([i]) * (6 << 20))
            yield 0.5
            reply = yield g.server_root.rpc(
                g.server_edge.name,
                {
                    "op": "sync_fetch_batch",
                    "capsule": metadata.name.raw,
                    "seqnos": [1, 2, 3],
                    "max_bytes": 2 ** 40,
                },
                timeout=30.0,
            )
            return reply

        reply = g.run(scenario())
        body = reply.get("body", reply)
        assert body["ok"] is True
        assert body["served"] == [1]
        assert len(body["records"]) == 1

    def test_sync_nodes_refuses_ranges_past_the_tip(self, mini_gdp):
        """A probe reaching past the tip is answered with an error, not
        with a root that walks (and caches) one leaf per seqno."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(4):
                yield from writer.append(b"rec-%d" % i)
            yield 0.5
            reply = yield g.server_root.rpc(
                g.server_edge.name,
                {
                    "op": "sync_nodes",
                    "capsule": metadata.name.raw,
                    "ranges": [[1, 4], [1, 10 ** 5]],
                },
                timeout=5.0,
            )
            return metadata, reply

        metadata, reply = g.run(scenario())
        body = reply.get("body", reply)
        assert body["ok"] is False
        assert "past the tip 4" in body["error"]
        capsule = g.server_edge.hosted[metadata.name].capsule
        assert len(capsule._sync_leaf_cache) <= 4


class RootsAgree(DeliveryMiddleware):
    """A path forger: it replaces the body of *replica*'s ``sync_root``
    reply with the replica's own tip and root, keeping the sibling's
    signature, so the round looks like "roots agree"."""

    def __init__(self, replica, capsule_name):
        self.replica = replica
        self.capsule_name = capsule_name
        self.asked = set()
        self.forged = 0

    def on_deliver(self, link, sender, receiver, message, size):
        ptype = getattr(message, "ptype", None)
        payload = getattr(message, "payload", None)
        if ptype == T_DATA and payload.get("op") == "sync_root":
            self.asked.add(message.corr_id)
        elif ptype == T_RESPONSE and message.corr_id in self.asked:
            self.asked.discard(message.corr_id)
            own = self.replica.hosted[self.capsule_name].capsule
            body = {
                "ok": True,
                "last_seqno": own.last_seqno,
                "count": len(own),
                "root": own.range_root(1, own.last_seqno),
            }
            self.forged += 1
            return Pdu(
                message.src, message.dst, ptype,
                dict(payload, body=body), corr_id=message.corr_id,
            )
        return None


class TestAttestedSync:
    """Anti-entropy admits fetched records under the write ops' one
    attestation rule: a sibling serving a tampered record plants
    nothing, and records a later reply attests wait within the round."""

    def test_tampered_sibling_record_is_not_absorbed(self, mini_gdp):
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)
        session = SyncSession(capsule=None, peer=None)
        root, edge = g.server_root, g.server_edge

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(4):
                yield from writer.append(b"pre-%d" % i)
            yield 0.5
            link.fail()
            yield from writer.append(b"lost")  # seqno 5, root never sees it
            link.recover()
            g.r_edge.flush_fib()
            g.r_root.flush_fib()
            for i in range(3):
                yield from writer.append(b"post-%d" % i)
            yield 0.5
            StorageTamperer(edge).corrupt_record(metadata.name, 5)
            fetched = yield from sync_once(
                root, metadata.name, edge.name, session=session
            )
            return metadata, fetched

        def stored_at(seqno):
            return [
                wire
                for tag, wire in root.storage.load_entries(metadata.name)
                if tag == "r" and wire["seqno"] == seqno
            ]

        metadata, fetched = g.run(scenario())
        assert fetched == 0
        assert session.records_refused == 1
        assert root.metrics.counter("server.sync.refused").value == 1
        assert root.hosted[metadata.name].capsule.get_all(5) == []
        assert stored_at(5) == []
        root.restart()
        assert root.hosted[metadata.name].capsule.get_all(5) == []

        # The sibling turns honest (its replica rebuilt from its own
        # log): the next round repairs seqno 5.
        edge.restart()

        def repair():
            yield 1.0  # let the restarted servers re-advertise
            return (yield from sync_once(
                root, metadata.name, edge.name, session=session
            ))

        assert g.run(repair()) == 1
        assert session.records_refused == 1
        assert len(stored_at(5)) == 1
        repaired = root.hosted[metadata.name].capsule
        assert (
            repaired.canonical_summary()
            == edge.hosted[metadata.name].capsule.canonical_summary()
        )
        assert repaired.verify_history() == 8

    def test_forged_roots_agree_reply_is_refused(self, mini_gdp):
        """A forged "roots agree" answer to a behind replica's
        ``sync_root`` is refused and fails the round instead of ending
        repair; the next clean round repairs."""
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)
        session = SyncSession(capsule=None, peer=None)
        root, edge = g.server_root, g.server_edge

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(2):
                yield from writer.append(b"pre-%d" % i)
            yield 0.5
            link.fail()
            for i in range(3):
                yield from writer.append(b"missed-%d" % i)  # root never sees these
            link.recover()
            g.r_edge.flush_fib()
            g.r_root.flush_fib()
            yield 0.5
            forger = g.net.delivery.use(RootsAgree(root, metadata.name))
            try:
                fetched = yield from sync_once(
                    root, metadata.name, edge.name, session=session
                )
            finally:
                g.net.delivery.remove(forger)
            return metadata, forger, fetched

        metadata, forger, fetched = g.run(scenario())
        assert forger.forged == 1
        assert fetched == 0
        assert session.failures == 1
        assert root.metrics.counter("server.replies_refused").value == 1
        assert root.hosted[metadata.name].capsule.last_seqno == 2

        def repair():
            return (yield from sync_once(
                root, metadata.name, edge.name, session=session
            ))

        assert g.run(repair()) == 3
        assert session.failures == 1
        assert (
            root.hosted[metadata.name].capsule.canonical_summary()
            == edge.hosted[metadata.name].capsule.canonical_summary()
        )

    def test_record_tampered_at_rest_is_refused_on_restart(self, mini_gdp):
        """A hostile disk rewrites a stored record in place, payload
        changed and pointers kept: the restart's replay refuses it (no
        heartbeat or stored successor attests the forged digest) and
        counts it, and one sync round stores the genuine record."""
        g = mini_gdp
        root, edge = g.server_root, g.server_edge

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(8):
                yield from writer.append(b"rec-%d" % i)
            yield 0.5
            return metadata

        metadata = g.run(scenario())
        log = root.storage._data[metadata.name]
        at = next(
            i for i, (tag, wire) in enumerate(log)
            if tag == "r" and wire["seqno"] == 5
        )
        wire = dict(log[at][1], payload=log[at][1]["payload"] + b"!forged!")
        log[at] = ("r", wire)
        forged = Record.from_wire(metadata.name, wire)
        root.restart()
        assert forged.digest not in root.hosted[metadata.name].capsule
        assert root.hosted[metadata.name].capsule.get_all(5) == []
        assert root.last_recovery["refused"] == 1

        def repair():
            yield 1.0  # let the restarted server re-advertise
            return (yield from sync_once(root, metadata.name, edge.name))

        assert g.run(repair()) == 1
        repaired = root.hosted[metadata.name].capsule
        assert (
            repaired.canonical_summary()
            == edge.hosted[metadata.name].capsule.canonical_summary()
        )
        assert repaired.verify_history() == 8

    def test_multi_batch_repair_in_one_round(self, mini_gdp):
        """A fresh replica of an ``append_stream`` capsule (heartbeats
        only at the writer's batch tips) repairs five fetch batches in
        one round: the first batch carries no heartbeat and waits for
        the second to attest it."""
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)
        config = SyncConfig(batch_records=8)
        session = SyncSession(capsule=None, peer=None)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            link.fail()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append_stream(
                [b"stream-%d" % i for i in range(40)], batch_records=10
            )
            yield 0.5
            link.recover()
            g.r_edge.flush_fib()
            g.r_root.flush_fib()
            fetched = yield from sync_once(
                g.server_root, metadata.name, g.server_edge.name,
                config=config, session=session,
            )
            return metadata, fetched

        metadata, fetched = g.run(scenario())
        assert fetched == 40
        assert session.rounds == 1
        assert session.batches == 5
        assert session.records_refused == 0
        root = g.server_root.hosted[metadata.name].capsule
        edge = g.server_edge.hosted[metadata.name].capsule
        assert [h.seqno for h in root.heartbeats()] == [10, 20, 30, 40]
        assert root.canonical_summary() == edge.canonical_summary()
        assert root.verify_history() == 40


# -- the O(missing records) bytes property --------------------------------


def _build_divergent_world(n_records: int, missing: set, *, seed: int):
    """Two servers over a constrained link hosting the same capsule;
    ``a`` holds all *n_records*, ``b`` is missing the *missing* seqnos
    (records and heartbeats both, injected directly — no network cost)."""
    owner = SigningKey.from_seed(b"delta-owner-%d" % seed)
    writer_key = SigningKey.from_seed(b"delta-writer-%d" % seed)
    metadata = make_capsule_metadata(
        owner, writer_key.public, pointer_strategy="chain",
        extra={"n": n_records, "seed": seed},
    )
    writer = CapsuleWriter(metadata, writer_key)
    minted = [writer.append(b"rec-%05d" % i) for i in range(n_records)]

    net = SimNetwork(seed=seed)
    clock = lambda: net.sim.now  # noqa: E731
    domain = RoutingDomain("global", clock=clock)
    r0 = GdpRouter(net, "r0", domain)
    r1 = GdpRouter(net, "r1", domain)
    net.connect(r0, r1, latency=0.001, bandwidth=1.25e6)
    server_a = DataCapsuleServer(net, "a")
    server_a.attach(r0, latency=0.0001)
    server_b = DataCapsuleServer(net, "b")
    server_b.attach(r1, latency=0.0001)
    client = GdpClient(net, "seeder")
    client.attach(r0, latency=0.0001)
    console = OwnerConsole(client, owner)

    def setup():
        yield server_a.advertise()
        yield server_b.advertise()
        yield client.advertise()
        yield from console.place_capsule(
            metadata, [server_a.metadata, server_b.metadata]
        )
        yield 0.5

    net.sim.run_process(setup(), "divergent-setup")
    for record, heartbeat in minted:
        for server in (server_a, server_b):
            if server is server_b and record.seqno in missing:
                continue
            # delivered as a sibling's replicate_batch: admitted and stored
            body = {"op": "replicate_batch", **run_wire([record], heartbeat)}
            dispatch_op(server, Pdu(client.name, server.name, T_DATA, body), body)
    return net, server_a, server_b, metadata


def _measure_sync(n_records: int, missing: set, *, seed: int):
    """Heal one divergence with ``sync_once``; returns (fetched, bytes)."""
    net, server_a, server_b, metadata = _build_divergent_world(
        n_records, missing, seed=seed
    )
    before = net.bytes_on_wire()
    fetched = net.sim.run_process(
        sync_once(server_b, metadata.name, server_a.name, timeout=60.0),
        "measured-sync",
    )
    assert (
        server_a.hosted[metadata.name].capsule.canonical_summary()
        == server_b.hosted[metadata.name].capsule.canonical_summary()
    )
    return fetched, net.bytes_on_wire() - before


class TestBytesProportionalToDivergence:
    """Delta-sync wire cost must track the number of *missing* records
    (plus an O(log n) bisection term), not the capsule length."""

    MISSING = {40, 80, 120, 160, 199}

    def test_delta_bytes_scale_with_missing_not_length(self):
        fetched_small, delta_small = _measure_sync(
            200, self.MISSING, seed=31
        )
        fetched_large, delta_large = _measure_sync(
            800, self.MISSING, seed=37
        )
        assert fetched_small == len(self.MISSING)
        assert fetched_large == len(self.MISSING)
        # 4x the records must cost far less than 4x the bytes: only the
        # bisection depth (log n) may grow, never the transfer itself.
        assert delta_large < 2 * delta_small


class TestDaemonJitter:
    """Satellite (c): anti-entropy pacing is jittered but seeded — the
    fleet desynchronizes, replays stay byte-identical."""

    def test_same_seed_same_delays(self, mini_gdp):
        g = mini_gdp
        d1 = AntiEntropyDaemon(
            g.server_root, interval=2.0, rng=random.Random("sync-seed")
        )
        d2 = AntiEntropyDaemon(
            g.server_edge, interval=2.0, rng=random.Random("sync-seed")
        )
        assert [d1._next_delay() for _ in range(16)] == [
            d2._next_delay() for _ in range(16)
        ]

    def test_default_rngs_desynchronize_distinct_servers(self, mini_gdp):
        g = mini_gdp
        d1 = AntiEntropyDaemon(g.server_root, interval=2.0)
        d2 = AntiEntropyDaemon(g.server_edge, interval=2.0)
        assert [d1._next_delay() for _ in range(8)] != [
            d2._next_delay() for _ in range(8)
        ]

    def test_delays_bounded_by_jitter(self, mini_gdp):
        g = mini_gdp
        daemon = AntiEntropyDaemon(g.server_root, interval=4.0, jitter=0.5)
        delays = [daemon._next_delay() for _ in range(64)]
        assert all(3.0 <= d <= 5.0 for d in delays)

    def test_zero_jitter_is_exact(self, mini_gdp):
        g = mini_gdp
        daemon = AntiEntropyDaemon(g.server_root, interval=3.0, jitter=0.0)
        assert daemon._next_delay() == 3.0
