"""Publish-subscribe: verified pushes, multiple subscribers, forgery."""

from repro.client import GdpClient


class TestSubscriptions:
    def test_subscriber_receives_all_future_records(self, mini_gdp):
        g = mini_gdp
        received = []

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            yield from g.reader_client.subscribe(
                metadata.name, lambda record, hb: received.append(record.seqno)
            )
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(5):
                yield from writer.append(b"event-%d" % i)
            yield 2.0
            return True

        g.run(scenario())
        assert received == [1, 2, 3, 4, 5]

    def test_multiple_subscribers(self, mini_gdp):
        g = mini_gdp
        boxes = {"a": [], "b": []}
        extra = GdpClient(g.net, "extra_sub")
        extra.attach(g.r_edge)

        def scenario():
            yield from g.bootstrap()
            yield extra.advertise()
            metadata = yield from g.place()
            yield from g.reader_client.subscribe(
                metadata.name, lambda r, h: boxes["a"].append(r.seqno)
            )
            yield from extra.subscribe(
                metadata.name, lambda r, h: boxes["b"].append(r.seqno)
            )
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(3):
                yield from writer.append(b"e%d" % i)
            yield 2.0
            return True

        g.run(scenario())
        assert boxes["a"] == [1, 2, 3]
        assert boxes["b"] == [1, 2, 3]

    def test_subscribe_returns_next_seqno(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"already-there")
            yield 1.0
            start = yield from g.reader_client.subscribe(
                metadata.name, lambda r, h: None
            )
            return start

        assert g.run(scenario()) == 2

    def test_unsubscribe_stops_pushes(self, mini_gdp):
        g = mini_gdp
        received = []

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            yield from g.reader_client.subscribe(
                metadata.name, lambda r, h: received.append(r.seqno)
            )
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"one")
            yield 2.0
            corr_id, future = g.reader_client.request(
                metadata.name,
                {"op": "unsubscribe", "capsule": metadata.name.raw},
            )
            yield future
            yield from writer.append(b"two")
            yield 2.0
            return True

        g.run(scenario())
        # Both servers push; the reader may get one or two copies of
        # record 1 (dedup at the reader keeps the callback single).
        assert received == [1]

    def test_forged_push_dropped(self, mini_gdp):
        """A push with a forged record never reaches the callback."""
        from repro.capsule.records import Record
        from repro.crypto.hashing import HashPointer
        from repro.routing.pdu import Pdu, T_PUSH

        g = mini_gdp
        received = []

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            yield from g.reader_client.subscribe(
                metadata.name, lambda r, h: received.append(r.seqno)
            )
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            record = (yield from writer.append(b"real")).record
            heartbeat = writer.writer.capsule.latest_heartbeat
            yield 1.0
            # The adversary pushes a forged record reusing the real
            # heartbeat (digest mismatch must be caught).
            forged = Record(
                metadata.name, 2, b"FAKE", [HashPointer(1, record.digest)]
            )
            push = Pdu(
                g.server_root.name,
                g.reader_client.name,
                T_PUSH,
                {
                    "capsule": metadata.name.raw,
                    "record": forged.to_wire(),
                    "heartbeat": heartbeat.to_wire(),
                },
            )
            g.server_root.send_pdu(push)
            yield 1.0
            return True

        g.run(scenario())
        assert received == [1]  # only the genuine record

    def test_push_deduplicated_across_replicas(self, mini_gdp):
        """Both replicas may push the same record (writer append +
        replication); the reader-side verification accepts it but the
        callback only sees each seqno once per push — we assert no
        duplicate *seqnos* beyond what arrived."""
        g = mini_gdp
        received = []

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            yield from g.reader_client.subscribe(
                metadata.name, lambda r, h: received.append(r.seqno)
            )
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x")
            yield 2.0
            return True

        g.run(scenario())
        assert received == [1]
