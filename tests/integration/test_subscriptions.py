"""Publish-subscribe: verified pushes, multiple subscribers, forgery."""

from repro.client import GdpClient
from repro.routing.pdu import Pdu, T_PUSH


def _run(records, heartbeat) -> dict:
    """A run's wire body, spelled out: what a replica pushes."""
    return {
        "capsule": heartbeat.capsule.raw,
        "records": [record.to_wire() for record in records],
        "heartbeat": heartbeat.to_wire(),
    }


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
        """A pushed run with a forged record under the real heartbeat is
        refused by admission and never reaches the callback."""
        from repro.capsule.records import Record
        from repro.crypto.hashing import HashPointer

        g = mini_gdp
        received = []

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            yield from g.reader_client.subscribe(
                metadata.name, lambda r, h: received.append((r.seqno, r.payload))
            )
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            record = (yield from writer.append(b"real")).record
            yield 1.0
            heartbeat = g.server_root.hosted[metadata.name].capsule.latest_heartbeat
            # The adversary pushes a forged record 2 reusing the real
            # heartbeat over record 1 (the tip must match it).
            forged = Record(
                metadata.name, 2, b"FAKE", [HashPointer(1, record.digest)]
            )
            push = Pdu(
                g.server_root.name,
                g.reader_client.name,
                T_PUSH,
                _run([record, forged], heartbeat),
            )
            g.server_root.send_pdu(push)
            yield 1.0
            return True

        g.run(scenario())
        assert received == [(1, b"real")]  # only the genuine record

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


class TestRunPushes:
    """A push is the run a replica admitted — ``{capsule, records,
    heartbeat}``, one PDU per run — and the subscriber checks it with
    ``DataCapsule.verify_run``, the checks a replica admits it under."""

    @staticmethod
    def _subscribed(g, received, pushes, payloads=None):
        """Process body: one replica, a subscribed reader whose inbound
        pushes are counted and whose callback records each delivered
        seqno (and payload, given *payloads*); returns the capsule
        metadata."""
        yield from g.bootstrap()
        metadata = yield from g.place(servers=[g.server_edge.metadata])
        on_push = g.reader_client.on_push

        def counting(pdu):
            pushes.append(pdu)
            on_push(pdu)

        def deliver(record, heartbeat):
            received.append(record.seqno)
            if payloads is not None:
                payloads.append(record.payload)

        g.reader_client.on_push = counting
        yield from g.reader_client.subscribe(metadata.name, deliver)
        return metadata

    def test_a_batch_is_one_push(self, mini_gdp):
        g = mini_gdp
        received, pushes = [], []

        def scenario():
            metadata = yield from self._subscribed(g, received, pushes)
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append_stream(
                [b"event-%d" % i for i in range(8)], batch_records=8
            )
            yield 2.0
            return metadata

        metadata = g.run(scenario())
        assert len(pushes) == 1
        assert sorted(pushes[0].payload) == ["capsule", "heartbeat", "records"]
        assert received == list(range(1, 9))
        assert g.reader_client.readers[metadata.name].frontier.seqno == 8
        assert g.server_edge.stats["pushes"] == 1

    def test_retried_run_pushes_nothing(self, mini_gdp):
        """A run is pushed only if admission stored a new record."""
        g = mini_gdp
        received, pushes = [], []

        def scenario():
            metadata = yield from self._subscribed(g, received, pushes)
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            records, heartbeat = writer.writer.append_batch([b"a", b"b", b"c"])
            request = dict(_run(records, heartbeat), op="append_batch")
            for _ in range(2):  # a client retry
                reply = yield g.writer_client.rpc(metadata.name, dict(request))
                assert reply.get("body", reply)["ok"]
            yield 2.0
            return True

        g.run(scenario())
        assert len(pushes) == 1
        assert received == [1, 2, 3]

    def test_tampered_non_tip_record_delivers_nothing(self, mini_gdp):
        g = mini_gdp
        received, pushes, delivered = [], [], []

        def scenario():
            metadata = yield from self._subscribed(g, received, pushes, delivered)
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            records, heartbeat = writer.writer.append_batch([b"a", b"b", b"c"])
            run = _run(records, heartbeat)
            tampered = dict(run, records=[dict(w) for w in run["records"]])
            tampered["records"][1]["payload"] = b"forged"
            for body in (tampered, run):
                g.reader_client.on_push(
                    Pdu(g.server_edge.name, g.reader_client.name, T_PUSH, body)
                )
            return metadata

        g.run(scenario())
        # the tampered run delivered nothing; the genuine one all three
        assert received == [1, 2, 3]
        assert delivered == [b"a", b"b", b"c"]

    def test_malformed_push_is_dropped(self, mini_gdp):
        g = mini_gdp
        received, pushes = [], []

        def scenario():
            metadata = yield from self._subscribed(g, received, pushes)
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            record, heartbeat = writer.writer.append(b"only")
            run = _run([record], heartbeat)
            name = metadata.name.raw
            malformed = [
                {"capsule": name, "heartbeat": run["heartbeat"]},
                {"capsule": name, "records": run["records"]},
                {"capsule": name, "records": 7, "heartbeat": run["heartbeat"]},
                {"capsule": name, "records": [], "heartbeat": run["heartbeat"]},
                {"capsule": name, "records": ["x"], "heartbeat": run["heartbeat"]},
                {"capsule": name, "records": run["records"], "heartbeat": b"hb"},
                dict(run, heartbeat=dict(run["heartbeat"], digest=64)),
                dict(run, records=[dict(run["records"][0], payload=64)]),
                # the single-record shape pushes used to have
                {"capsule": name, "record": run["records"][0],
                 "heartbeat": run["heartbeat"]},
                ["not", "a", "mapping"],
            ]
            for body in malformed + [run]:
                g.reader_client.on_push(
                    Pdu(g.server_edge.name, g.reader_client.name, T_PUSH, body)
                )
            return True

        g.run(scenario())
        assert received == [1]  # only the well-formed run at the end
