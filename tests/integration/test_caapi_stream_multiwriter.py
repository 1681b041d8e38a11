"""Stream CAAPI (loss tolerance) and multi-writer services."""

from repro.adversary import PathAttacker
from repro.caapi import (
    AggregationService,
    CommitClient,
    CommitShard,
    ShardedCommitService,
    StreamPublisher,
    StreamSubscriber,
    read_committed_entry,
)
from repro.client import GdpClient
from repro.routing.pdu import T_PUSH
from repro.sim import blob


class TestStream:
    def test_live_playback(self, mini_gdp):
        g = mini_gdp
        publisher = StreamPublisher(
            g.writer_client, g.console, [g.server_edge.metadata],
            writer_key=g.writer_key, window=4,
        )
        frames = []

        def scenario():
            yield from g.bootstrap()
            name = yield from publisher.create()
            subscriber = StreamSubscriber(g.reader_client, name)
            yield from subscriber.play(lambda f: frames.append(f.index))
            for i in range(6):
                yield from publisher.publish(blob(600, seed=i))
            yield 2.0
            return subscriber

        subscriber = g.run(scenario())
        assert frames == [0, 1, 2, 3, 4, 5]
        assert subscriber.gaps == []

    def test_lossy_path_reports_gaps(self, mini_gdp):
        """Drop push PDUs on the wire: playback continues, gaps are
        reported, integrity of delivered frames holds."""
        g = mini_gdp
        publisher = StreamPublisher(
            g.writer_client, g.console, [g.server_root.metadata],
            writer_key=g.writer_key, window=4,
        )
        attacker = PathAttacker(g.net, seed=5)
        attacker.match = lambda pdu: pdu.ptype == T_PUSH
        attacker.drop_rate = 0.4
        frames = []

        def scenario():
            yield from g.bootstrap()
            name = yield from publisher.create()
            subscriber = StreamSubscriber(g.reader_client, name)
            yield from subscriber.play(lambda f: frames.append(f.index))
            attacker.install()
            for i in range(15):
                yield from publisher.publish(blob(600, seed=i))
            yield 2.0
            attacker.uninstall()
            return subscriber

        subscriber = g.run(scenario())
        assert attacker.stats["dropped"] > 0
        assert 0 < len(frames) < 15
        # Delivered + gaps cover the prefix seen so far, no duplicates.
        delivered_seqnos = [f.seqno for f in subscriber.delivered]
        assert len(set(delivered_seqnos)) == len(delivered_seqnos)
        assert set(subscriber.gaps).isdisjoint(delivered_seqnos)

    def test_time_shift_replay_recovers_everything(self, mini_gdp):
        """Frames lost on the live path are recovered by replay from
        storage (they were persisted by the server even though the push
        was dropped)."""
        g = mini_gdp
        publisher = StreamPublisher(
            g.writer_client, g.console, [g.server_root.metadata],
            writer_key=g.writer_key, window=4,
        )
        attacker = PathAttacker(g.net, seed=6)
        attacker.match = lambda pdu: pdu.ptype == T_PUSH
        attacker.drop_rate = 0.5

        def scenario():
            yield from g.bootstrap()
            name = yield from publisher.create()
            subscriber = StreamSubscriber(g.reader_client, name)
            yield from subscriber.play(lambda f: None)
            attacker.install()
            for i in range(10):
                yield from publisher.publish(blob(500, seed=i))
            yield 1.0
            attacker.uninstall()
            frames, missing = yield from subscriber.replay(1, 10)
            return frames, missing

        frames, missing = g.run(scenario())
        assert missing == []
        assert [f.index for f in frames] == list(range(10))

    def test_keyframe_cadence(self, mini_gdp):
        g = mini_gdp
        publisher = StreamPublisher(
            g.writer_client, g.console, [g.server_edge.metadata],
            writer_key=g.writer_key, gop=3,
        )

        def scenario():
            yield from g.bootstrap()
            yield from publisher.create()
            flags = []
            for i in range(7):
                frame = yield from publisher.publish(b"f%d" % i)
                flags.append(frame.keyframe)
            return flags

        assert g.run(scenario()) == [True, False, False, True, False, False, True]


def one_shard_plane(g, label):
    """A :class:`CommitShard` behind a one-shard front, both attached;
    returns ``(shard, front, setup)`` — ``setup()`` advertises both and
    creates the shard log, returning its capsule name."""
    shard = CommitShard(g.net, label)
    shard.attach(g.r_root)
    front = ShardedCommitService(g.net, f"{label}_front", [shard])
    front.attach(g.r_root)

    def setup():
        yield shard.advertise()
        yield front.advertise()
        shard_map = yield from front.create(g.console, [g.server_root.metadata])
        return shard_map.capsules[0]

    return shard, front, setup


class TestCommitService:
    def test_serializes_multiple_writers(self, mini_gdp, owner_keys):
        g = mini_gdp
        service, front, setup = one_shard_plane(g, "commit_svc")
        alice = GdpClient(g.net, "alice", key=owner_keys(b"alice"))
        bob = GdpClient(g.net, "bob", key=owner_keys(b"bob"))
        alice.attach(g.r_edge)
        bob.attach(g.r_root)
        service.allow_writer(alice.key.public)
        service.allow_writer(bob.key.public)

        def scenario():
            yield from g.bootstrap()
            yield alice.advertise()
            yield bob.advertise()
            capsule = yield from setup()
            as_alice = CommitClient(alice, front.name)
            as_bob = CommitClient(bob, front.name)
            s1 = yield from as_alice.submit(b"from-alice")
            s2 = yield from as_bob.submit(b"from-bob")
            s3 = yield from as_alice.submit(b"alice-again")
            yield 1.0
            records = (yield from g.reader_client.read_range(capsule, 1, 3)).records
            return (s1, s2, s3), records

        (s1, s2, s3), records = g.run(scenario())
        assert (s1.seqno, s2.seqno, s3.seqno) == (1, 2, 3)
        submitters = [read_committed_entry(r.payload)["submitter"] for r in records]
        assert submitters == [
            alice.key.public.to_bytes(),
            bob.key.public.to_bytes(),
            alice.key.public.to_bytes(),
        ]

    def test_acl_rejects_unauthorized_writer(self, mini_gdp, owner_keys):
        g = mini_gdp
        service, front, setup = one_shard_plane(g, "commit_acl")
        outsider = GdpClient(g.net, "outsider", key=owner_keys(b"out"))
        outsider.attach(g.r_root)
        insider = GdpClient(g.net, "insider", key=owner_keys(b"in"))
        insider.attach(g.r_root)
        service.allow_writer(insider.key.public)

        def scenario():
            yield from g.bootstrap()
            yield outsider.advertise()
            yield insider.advertise()
            yield from setup()
            import pytest as _pytest

            from repro.errors import CapsuleError

            with _pytest.raises(CapsuleError):
                yield from CommitClient(outsider, front.name).submit(b"rejected")
            receipt = yield from CommitClient(insider, front.name).submit(
                b"accepted"
            )
            return receipt.seqno, service.metrics.counter("commit.rejected").value

        seqno, rejected = g.run(scenario())
        assert seqno == 1 and rejected == 1

    def test_forged_submission_signature_rejected(self, mini_gdp, owner_keys):
        g = mini_gdp
        service = CommitShard(g.net, "commit_sig")
        service.attach(g.r_root)
        mallory = GdpClient(g.net, "mallory", key=owner_keys(b"mal"))
        mallory.attach(g.r_root)
        victim_key = owner_keys(b"victim")
        service.allow_writer(victim_key.public)

        def scenario():
            yield from g.bootstrap()
            yield service.advertise()
            yield mallory.advertise()
            capsule = yield from service.create_capsule(
                g.console, [g.server_root.metadata]
            )
            # Mallory claims to be the victim but signs with her key.
            reply = yield mallory.rpc(
                service.name,
                {
                    "op": "submit",
                    "submitter": victim_key.public.to_bytes(),
                    "data": b"forged",
                    "signature": mallory.key.sign(b"whatever"),
                },
            )
            return reply

        reply = g.run(scenario())
        assert not reply.get("ok")
        assert "signature" in reply.get("error", "")


class TestAggregation:
    def test_fan_in(self, mini_gdp, owner_keys):
        g = mini_gdp
        aggregator = AggregationService(g.net, "aggregator")
        aggregator.attach(g.r_root)
        sensor_a = GdpClient(g.net, "sensor_a", key=owner_keys(b"sa"))
        sensor_a.attach(g.r_edge)

        def scenario():
            yield from g.bootstrap()
            yield aggregator.advertise()
            yield sensor_a.advertise()
            # Two input capsules with distinct writers.
            md_a = g.console.design_capsule(
                sensor_a.key.public, label="in-a"
            )
            yield from g.console.place_capsule(md_a, [g.server_edge.metadata])
            md_b = g.console.design_capsule(
                g.writer_key.public, label="in-b"
            )
            yield from g.console.place_capsule(md_b, [g.server_edge.metadata])
            yield 0.5
            out = yield from aggregator.create_output(
                g.console, [g.server_root.metadata]
            )
            yield from aggregator.follow(md_a.name)
            yield from aggregator.follow(md_b.name)
            writer_a = sensor_a.open_writer(md_a, sensor_a.key)
            writer_b = g.writer_client.open_writer(md_b, g.writer_key)
            yield from writer_a.append(b"a1")
            yield from writer_b.append(b"b1")
            yield from writer_a.append(b"a2")
            yield 3.0
            latest = (yield from g.reader_client.read_latest(out)).record
            records = (yield from g.reader_client.read_range(out, 1, latest.seqno)).records
            return md_a, md_b, records

        md_a, md_b, records = g.run(scenario())
        assert len(records) == 3
        from repro import encoding

        combined = [encoding.decode(r.payload) for r in records]
        sources = {entry["source"] for entry in combined}
        assert sources == {md_a.name.raw, md_b.name.raw}
        datas = {entry["data"] for entry in combined}
        assert datas == {b"a1", b"b1", b"a2"}
