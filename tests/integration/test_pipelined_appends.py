"""Pipelined appends: correctness and the latency win."""

import pytest

from repro.errors import CapsuleError


class TestAppendStream:
    def test_stream_appends_all_records(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            receipt = yield from writer.append_stream(
                [b"p%d" % i for i in range(12)], window=4
            )
            yield 0.5
            return metadata, [r.seqno for r in receipt.records]

        metadata, seqnos = g.run(scenario())
        assert seqnos == list(range(1, 13))
        capsule = g.server_edge.hosted[metadata.name].capsule
        assert capsule.last_seqno == 12
        assert capsule.holes() == []
        assert capsule.verify_history() == 12

    def test_pipelining_beats_sequential_on_latency(self, mini_gdp):
        """Over the 20 ms inter-domain link, 10 windowed appends finish
        in far fewer round trips than 10 sequential ones."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            # Both capsules live on the *remote* (root) server only.
            md_seq = yield from g.place(
                servers=[g.server_root.metadata], extra={"p": "seq"}
            )
            md_pipe = yield from g.place(
                servers=[g.server_root.metadata], extra={"p": "pipe"}
            )
            w_seq = g.writer_client.open_writer(md_seq, g.writer_key)
            w_pipe = g.writer_client.open_writer(md_pipe, g.writer_key)
            payloads = [b"x%d" % i for i in range(10)]
            t0 = g.net.sim.now
            for payload in payloads:
                yield from w_seq.append(payload)
            sequential = g.net.sim.now - t0
            t0 = g.net.sim.now
            yield from w_pipe.append_stream(payloads, window=10)
            pipelined = g.net.sim.now - t0
            return sequential, pipelined

        sequential, pipelined = g.run(scenario())
        assert pipelined < sequential / 3

    def test_stream_interleaves_with_subscriptions(self, mini_gdp):
        g = mini_gdp
        received = []

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            yield from g.reader_client.subscribe(
                metadata.name, lambda r, h: received.append(r.seqno)
            )
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append_stream([b"a", b"b", b"c"], window=3)
            yield 2.0
            return True

        g.run(scenario())
        assert sorted(received) == [1, 2, 3]

    def test_bad_window_rejected(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            with pytest.raises(CapsuleError):
                yield from writer.append_stream([b"x"], window=0)
            return True

        assert g.run(scenario())

    def test_empty_stream_is_noop(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            records = (yield from writer.append_stream([])).records
            return records

        assert g.run(scenario()) == []
