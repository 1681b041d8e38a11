"""The batched/windowed append pipeline: multi-record PDUs under one
tip heartbeat, windowed dispatch, durability, and receipt semantics."""

import pytest

from repro.client import AppendReceipt
from repro.errors import CapsuleError, DurabilityError


def _total_sent(net) -> int:
    return sum(link.metrics.counter("net.sent").value for link in net.links)


class TestAppendStream:
    def test_stream_reduces_pdus(self, mini_gdp):
        """24 records as a batched stream must cross the network in far
        fewer PDUs than 24 one-record appends (requests, responses, and
        replica pushes all batch)."""
        g = mini_gdp
        payloads = [b"pdu-count-%d" % i for i in range(24)]

        def scenario():
            yield from g.bootstrap()
            meta_seq = yield from g.place()
            meta_batch = yield from g.place()
            writer_seq = g.writer_client.open_writer(meta_seq, g.writer_key)
            writer_batch = g.writer_client.open_writer(
                meta_batch, g.writer_key
            )
            before = _total_sent(g.net)
            for payload in payloads:
                yield from writer_seq.append(payload)
            yield 1.0  # let replica pushes drain
            sequential = _total_sent(g.net) - before
            before = _total_sent(g.net)
            yield from writer_batch.append_stream(
                payloads, batch_records=8, window=4
            )
            yield 1.0
            batched = _total_sent(g.net) - before
            return sequential, batched

        sequential, batched = g.run(scenario())
        assert batched * 3 < sequential

    def test_stream_with_all_acks_is_durable_everywhere(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            receipt = yield from writer.append_stream(
                [b"durable-%d" % i for i in range(24)],
                acks="all", batch_records=8,
            )
            return metadata, receipt

        metadata, receipt = g.run(scenario())
        assert receipt.acks == 2
        for server in (g.server_root, g.server_edge):
            capsule = server.hosted[metadata.name].capsule
            assert capsule.last_seqno == 24
            assert capsule.holes() == []
            assert capsule.verify_history() == 24

    def test_receipt_covers_every_record(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            receipt = yield from writer.append_stream(
                [b"r-%d" % i for i in range(20)], batch_records=8
            )
            return receipt

        receipt = g.run(scenario())
        assert isinstance(receipt, AppendReceipt)
        assert receipt.batches == 3  # 8 + 8 + 4
        assert [r.seqno for r in receipt.records] == list(range(1, 21))
        assert receipt.seqno == 20
        assert receipt.record.payload == b"r-19"
        assert receipt.acks >= 1
        assert receipt.server is not None
        assert receipt.rtt > 0

    def test_empty_stream_is_a_no_op(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            before = _total_sent(g.net)
            receipt = yield from writer.append_stream([])
            return receipt, _total_sent(g.net) - before

        receipt, sent = g.run(scenario())
        assert receipt.records == []
        assert receipt.batches == 0
        assert receipt.acks == 0
        assert sent == 0

    def test_rejects_degenerate_window_and_batch(self, mini_gdp):
        g = mini_gdp
        metadata = g.console.design_capsule(
            g.writer_key.public, pointer_strategy="chain"
        )
        writer = g.writer_client.open_writer(metadata, g.writer_key)
        with pytest.raises(CapsuleError):
            next(writer.append_stream([b"x"], window=0))
        with pytest.raises(CapsuleError):
            next(writer.append_stream([b"x"], batch_records=0))

    def test_durability_error_when_replica_unreachable(self, mini_gdp):
        """``acks="all"`` with a crashed sibling must surface as a
        DurabilityError, exactly like the single-append path."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            g.server_root.crash()
            try:
                yield from writer.append_stream(
                    [b"doomed-%d" % i for i in range(6)],
                    acks="all", batch_records=3, timeout=30.0,
                )
            except DurabilityError:
                return True
            return False

        assert g.run(scenario()) is True


class TestAppendBatchOp:
    def test_batch_heartbeat_must_sign_the_tip(self, mini_gdp):
        """A multi-record batch whose heartbeat signs a non-tip record
        is rejected wholesale — no partial state lands."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            record_1, heartbeat_1 = writer.writer.append(b"first")
            record_2, _ = writer.writer.append(b"second")
            corr_id, future = g.writer_client.request(
                metadata.name,
                {
                    "op": "append_batch",
                    "capsule": metadata.name.raw,
                    "records": [record_1.to_wire(), record_2.to_wire()],
                    "heartbeat": heartbeat_1.to_wire(),  # not the tip
                    "acks": "any",
                },
            )
            wrapped = yield future
            try:
                g.writer_client.accept(wrapped, corr_id, capsule=metadata.name)
            except CapsuleError:
                return metadata, True
            return metadata, False

        metadata, rejected = g.run(scenario())
        assert rejected
        for server in (g.server_root, g.server_edge):
            assert server.hosted[metadata.name].capsule.last_seqno == 0

    def test_single_record_write_ops_are_unknown(self, mini_gdp):
        """A run is the one write shape: ``append`` and ``replicate``
        are gone from the registry and answer ``unknown_op``."""
        from repro.runtime.dispatch import op_names
        from repro.server import DataCapsuleServer

        names = op_names(DataCapsuleServer)
        assert {"append_batch", "replicate_batch"} <= set(names)
        assert not {"append", "replicate"} & set(names)
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_root.metadata])
            record, heartbeat = g.writer_client.open_writer(
                metadata, g.writer_key
            ).writer.append(b"one")
            bodies = []
            for op in ("append", "replicate"):
                reply = yield g.writer_client.rpc(
                    g.server_root.name,
                    {
                        "op": op,
                        "capsule": metadata.name.raw,
                        "record": record.to_wire(),
                        "heartbeat": heartbeat.to_wire(),
                    },
                )
                bodies.append(reply.get("body", reply))
            return metadata, bodies

        metadata, bodies = g.run(scenario())
        assert [b.get("error_kind") for b in bodies] == ["unknown_op"] * 2
        assert len(g.server_root.hosted[metadata.name].capsule) == 0

    @staticmethod
    def _write_op(g, metadata, dst, op, record_wires, heartbeat):
        """Process body: send one raw batch write op to *dst*; returns
        the refusal message, or None if the op was acked."""
        payload = {
            "op": op,
            "capsule": metadata.name.raw,
            "records": record_wires,
            "heartbeat": heartbeat.to_wire(),
        }
        if op == "append_batch":
            payload["acks"] = "all"
        corr_id, future = g.writer_client.request(dst, payload)
        wrapped = yield future
        try:
            g.writer_client.accept(wrapped, corr_id, capsule=metadata.name)
        except CapsuleError as exc:
            return str(exc)
        return None

    @staticmethod
    def _tampered_run(g, metadata):
        """A genuine two-record run under its genuine tip heartbeat, with
        record 1's payload replaced after signing."""
        writer = g.writer_client.open_writer(metadata, g.writer_key)
        records, heartbeat = writer.writer.append_batch([b"first", b"second"])
        forged = records[0].to_wire()
        forged["payload"] = b"forged"
        return [forged, records[1].to_wire()], heartbeat

    @staticmethod
    def _holds_nothing_at(server, metadata, seqno) -> bool:
        stored = [
            wire
            for tag, wire in server.storage.load_entries(metadata.name)
            if tag == "r" and wire["seqno"] == seqno
        ]
        capsule = server.hosted[metadata.name].capsule
        return capsule.get_all(seqno) == [] and stored == []

    def test_tampered_non_tip_record_is_refused(self, mini_gdp):
        """The tip heartbeat attests record 1 only through record 2's
        hash pointer; a record 1 that pointer does not reach is refused,
        and no replica keeps it."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            wires, heartbeat = self._tampered_run(g, metadata)
            refusal = yield from self._write_op(
                g, metadata, metadata.name, "append_batch", wires, heartbeat
            )
            yield 1.0  # any replicate would have landed by now
            return metadata, refusal

        metadata, refusal = g.run(scenario())
        assert refusal is not None and "not attested" in refusal
        for server in (g.server_root, g.server_edge):
            assert self._holds_nothing_at(server, metadata, 1)

    def test_tampered_run_is_refused_as_replicate_batch(self, mini_gdp):
        """A sibling (or anyone on the path) pushing the same tampered
        run straight to one replica meets the same admission rule."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            wires, heartbeat = self._tampered_run(g, metadata)
            refusal = yield from self._write_op(
                g, metadata, g.server_root.name, "replicate_batch",
                wires, heartbeat,
            )
            return metadata, refusal

        metadata, refusal = g.run(scenario())
        assert refusal is not None and "not attested" in refusal
        assert self._holds_nothing_at(g.server_root, metadata, 1)
        assert g.server_root.hosted[metadata.name].capsule.seqnos() == []

    def test_forged_tip_heartbeat_leaves_no_state(self, mini_gdp, other_key):
        """A batch whose heartbeat fails verification is refused before
        any record is stored — not kept in memory for sync to serve."""
        from repro.capsule import Heartbeat

        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            records, genuine = writer.writer.append_batch([b"one", b"two"])
            forged = Heartbeat.create(
                other_key, metadata.name, genuine.seqno, genuine.digest,
                genuine.timestamp,
            )
            refusal = yield from self._write_op(
                g, metadata, metadata.name, "append_batch",
                [r.to_wire() for r in records], forged,
            )
            yield 1.0
            return metadata, refusal

        metadata, refusal = g.run(scenario())
        assert refusal is not None and "invalid signature" in refusal
        for server in (g.server_root, g.server_edge):
            capsule = server.hosted[metadata.name].capsule
            assert capsule.seqnos() == []
            assert list(capsule.heartbeats()) == []
