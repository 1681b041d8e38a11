"""GdpClient edge cases and rejection paths."""

import pytest

from repro.client import GdpClient
from repro.errors import CapsuleError, GdpError, WriterStateError


class TestClientRejections:
    def test_open_writer_wrong_key(self, mini_gdp):
        from repro.crypto import SigningKey

        g = mini_gdp
        metadata = g.console.design_capsule(g.writer_key.public)
        with pytest.raises(WriterStateError):
            g.writer_client.open_writer(
                metadata, SigningKey.from_seed(b"not-the-writer")
            )

    def test_open_writer_qsw_mode_selected_by_metadata(self, mini_gdp):
        from repro.capsule import QuasiWriter

        g = mini_gdp
        metadata = g.console.design_capsule(
            g.writer_key.public, writer_mode="qsw"
        )
        handle = g.writer_client.open_writer(metadata, g.writer_key)
        assert isinstance(handle.writer, QuasiWriter)

    def test_writer_state_persists_across_client_restart(
        self, mini_gdp, tmp_path
    ):
        g = mini_gdp
        state_path = str(tmp_path / "writer.state")

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(
                metadata, g.writer_key, state_path=state_path
            )
            yield from writer.append(b"one")
            yield from writer.append(b"two")
            # 'Restart': a fresh handle loading the same state file.
            reborn = g.writer_client.open_writer(
                metadata, g.writer_key, state_path=state_path
            )
            receipt = yield from reborn.append(b"three")
            return receipt.seqno

        assert g.run(scenario()) == 3

    def test_metadata_for_wrong_name_rejected(self, mini_gdp):
        """A server answering the metadata op with a *different*
        capsule's metadata is caught by the reader's self-certification
        check."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            genuine = yield from g.place(extra={"which": "genuine"})
            decoy = yield from g.place(extra={"which": "decoy"})
            # Corrupt the edge server: make it claim the decoy's
            # metadata under the genuine name.
            hosted = g.server_edge.hosted[genuine.name]
            hosted.capsule.metadata = decoy  # hostile swap
            with pytest.raises(GdpError):
                yield from g.writer_client.read_latest(genuine.name)
            return True

        assert g.run(scenario())

    def test_forged_response_cannot_repoint_the_resolution_cache(
        self, mini_gdp
    ):
        """Only a *verified* answer names the replica a later
        route-failure report will quarantine: a forged envelope quoting
        an innocent server's (public) metadata must not."""
        g = mini_gdp
        client = g.reader_client

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"one")
            yield 0.5
            genuine = (yield from client.read(metadata.name, 1)).server
            assert client._resolutions[metadata.name] == genuine
            innocent = next(
                server
                for server in (g.server_root, g.server_edge)
                if server.name != genuine
            )

            def forged_request(dst, payload, **kwargs):
                future = client.ctx.future()
                future.resolve({
                    "body": {"ok": True},
                    "auth": {
                        "mode": "sig",
                        "server_metadata": innocent.metadata.to_wire(),
                        "signature": bytes(64),
                    },
                })
                return 77, future

            client.request = forged_request
            with pytest.raises(GdpError):
                yield from client.read(metadata.name, 1)
            return client._resolutions[metadata.name] == genuine

        assert g.run(scenario())

    def test_two_capsules_do_not_cross_talk(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            md_a = yield from g.place(extra={"t": "a"})
            md_b = yield from g.place(extra={"t": "b"})
            writer_a = g.writer_client.open_writer(md_a, g.writer_key)
            writer_b = g.writer_client.open_writer(md_b, g.writer_key)
            yield from writer_a.append(b"for-a")
            yield from writer_b.append(b"for-b")
            yield 1.0
            rec_a = (yield from g.reader_client.read(md_a.name, 1)).record
            rec_b = (yield from g.reader_client.read(md_b.name, 1)).record
            return rec_a.payload, rec_b.payload

        assert g.run(scenario()) == (b"for-a", b"for-b")

    def test_reader_cache_avoids_refetching_metadata(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x")
            yield from writer.append(b"y")
            yield from g.reader_client.read(metadata.name, 1)
            reads_after_first = g.server_edge.stats["reads"]
            yield from g.reader_client.read(metadata.name, 2)
            # Second read: exactly one more server read op (no second
            # metadata fetch round-trip).
            return g.server_edge.stats["reads"] - reads_after_first

        assert g.run(scenario()) == 1


class TestLongRangeReads:
    def test_range_over_a_frame_arrives_in_verified_pieces(self, mini_gdp):
        """A range holding more than a transport frame comes back as
        byte-capped prefixes, each verified against its own proof; a
        range under the cap is still exactly one request."""
        from repro.runtime.transport import DEFAULT_MAX_FRAME

        g = mini_gdp
        chunks = [bytes([i]) * (4 * 1024 * 1024) for i in range(5)]
        assert sum(map(len, chunks)) > DEFAULT_MAX_FRAME

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for chunk in chunks:
                yield from writer.append(chunk)
            served = g.server_edge.metrics.counter("server.reads")
            before = served.value
            whole = yield from g.reader_client.read_range(metadata.name, 1, 5)
            pieces = served.value - before
            short = yield from g.reader_client.read_range(metadata.name, 2, 3)
            return whole, pieces, short, served.value - before - pieces

        whole, pieces, short, short_requests = g.run(scenario())
        assert [record.seqno for record in whole.records] == [1, 2, 3, 4, 5]
        assert [record.payload for record in whole.records] == chunks
        assert pieces == 3  # 2 + 2 + 1 chunks: 8 MiB of payload a reply
        assert [record.seqno for record in short.records] == [2, 3]
        assert short_requests == 1

    def test_reply_that_does_not_continue_the_range_is_rejected(
        self, mini_gdp, monkeypatch
    ):
        """The continuation trusts no reply to say where it starts: a
        server answering from the wrong seqno cannot skip a record (or
        keep the reader looping); the check runs before any proof is."""
        from repro.capsule import DataCapsule
        from repro.errors import IntegrityError

        g = mini_gdp
        honest = DataCapsule.read_range

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(4):
                yield from writer.append(b"r%d" % i)
            monkeypatch.setattr(
                DataCapsule, "read_range",
                lambda self, first, last: honest(self, first + 1, last),
            )
            with pytest.raises(IntegrityError, match="does not continue"):
                yield from g.reader_client.read_range(metadata.name, 1, 4)
            return True

        assert g.run(scenario())

    def test_point_read_answered_with_another_record_is_rejected(
        self, mini_gdp, monkeypatch
    ):
        """A delegated replica asked for record 5 serves record 3 under
        its genuine proof: the reply does not continue the one-record
        range, so it is refused before its proof is checked."""
        from repro.errors import IntegrityError

        g = mini_gdp
        server = g.server_edge
        honest = server.on_request

        def substitute(pdu):
            for field in ("first", "last"):
                if pdu.payload.get(field) == 5:
                    pdu.payload[field] = 3
            return honest(pdu)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[server.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(1, 6):
                yield from writer.append(b"rec-%d" % i)
            yield from g.reader_client.fetch_metadata(metadata.name)
            monkeypatch.setattr(server, "on_request", substitute)
            with pytest.raises(IntegrityError, match=r"continue \[5, 5\]"):
                yield from g.reader_client.read(metadata.name, 5)
            return True

        assert g.run(scenario())

    def test_range_past_the_tip_gets_a_short_refusal(self, mini_gdp):
        """An unauthenticated request for ten million records of a
        three-record capsule is refused in one line naming the tip — no
        per-seqno walk, no reply over the frame limit."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(3):
                yield from writer.append(b"r%d" % i)
            reply = yield g.reader_client.rpc(
                g.server_edge.name,
                {
                    "op": "read_range",
                    "capsule": metadata.name.raw,
                    "first": 1,
                    "last": 10**7,
                },
            )
            return reply.get("body", reply)

        body = g.run(scenario())
        assert not body["ok"]
        assert body["error"].endswith("range [1, 10000000] is past the tip 3")
        assert len(body["error"]) < 100

    def test_freshness_is_checked_on_open_ended_reads_only(self, mini_gdp):
        """Once the reader has verified heartbeat 3, a replica anchored
        at heartbeat 2 still serves records 1..2 — they are immutable —
        but its answer to a read through the tip is stale."""
        from repro.capsule import DataCapsule
        from repro.errors import IntegrityError

        g = mini_gdp
        reader = g.reader_client

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(3):
                yield from writer.append(b"r%d" % i)
            assert (yield from reader.read_latest(metadata.name)).record.seqno == 3
            hosted = g.server_edge.hosted[metadata.name]
            stale = DataCapsule(metadata)
            for seqno in (1, 2):
                stale.admit(
                    [hosted.capsule.get(seqno)], hosted.capsule.heartbeats_at(seqno)[0]
                )
            hosted.capsule = stale
            point = yield from reader.read(metadata.name, 2)
            fixed = yield from reader.read_range(metadata.name, 1, 2)
            for open_ended in (
                reader.read_latest(metadata.name),
                reader.read_range(metadata.name, 1),
            ):
                with pytest.raises(IntegrityError, match="stale response"):
                    yield from open_ended
            return point, fixed

        point, fixed = g.run(scenario())
        assert point.proof.position.heartbeat.seqno == 2
        assert [r.payload for r in fixed.records] == [b"r0", b"r1"]

    def test_open_ended_range_reads_through_the_tip(self, mini_gdp):
        """``read_range(name, first)`` is one request answered through
        the newest heartbeat; a capsule with none answers None."""
        g = mini_gdp
        reader = g.reader_client

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            empty = yield from reader.read_range(metadata.name, 1)
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(4):
                yield from writer.append(b"r%d" % i)
            served = g.server_edge.metrics.counter("server.reads")
            before = served.value
            tail = yield from reader.read_range(metadata.name, 2)
            return empty, tail, served.value - before

        empty, tail, requests = g.run(scenario())
        assert empty is None
        assert [r.seqno for r in tail.records] == [2, 3, 4]
        assert tail.proof.position.heartbeat.seqno == 4
        assert requests == 1

    def test_point_and_tip_ops_are_gone(self, mini_gdp):
        """A verified range is the one read shape: ``read`` and
        ``latest`` are gone from the registry and answer ``unknown_op``."""
        from repro.runtime.dispatch import op_names
        from repro.server import DataCapsuleServer

        names = set(op_names(DataCapsuleServer))
        assert "read_range" in names
        assert not {"read", "latest"} & names
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            bodies = []
            for request in (
                {"op": "read", "seqno": 1},
                {"op": "latest"},
            ):
                request["capsule"] = metadata.name.raw
                reply = yield g.reader_client.rpc(g.server_edge.name, request)
                bodies.append(reply.get("body", reply))
            return bodies

        bodies = g.run(scenario())
        assert [b.get("error_kind") for b in bodies] == ["unknown_op"] * 2


class TestKvStoreEdgeCases:
    def test_full_replay_fallback_without_snapshot(self, mini_gdp):
        """Fewer writes than the snapshot interval: readers replay from
        record 1 (the fallback path)."""
        from repro.caapi import CapsuleKVStore

        g = mini_gdp
        kv = CapsuleKVStore(
            g.writer_client, g.console, [g.server_edge.metadata],
            snapshot_interval=64,
        )

        def scenario():
            yield from g.bootstrap()
            name = yield from kv.create()
            yield from kv.put("a", 1)
            yield from kv.put("b", 2)
            yield 0.5
            reader_kv = CapsuleKVStore(
                g.reader_client, g.console, [], snapshot_interval=64
            )
            yield from reader_kv.mount(name)
            return (yield from reader_kv.items())

        assert g.run(scenario()) == {"a": 1, "b": 2}

    def test_reads_before_create_rejected(self, mini_gdp):
        from repro.caapi import CapsuleKVStore

        g = mini_gdp
        kv = CapsuleKVStore(g.writer_client, g.console, [])
        with pytest.raises(CapsuleError):
            kv.name  # noqa: B018 — the property raise is the assertion

    def test_mounted_store_cannot_write(self, mini_gdp):
        from repro.caapi import CapsuleKVStore

        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            kv = CapsuleKVStore(
                g.writer_client, g.console, [g.server_edge.metadata]
            )
            name = yield from kv.create()
            reader_kv = CapsuleKVStore(g.reader_client, g.console, [])
            yield from reader_kv.mount(name)
            with pytest.raises(CapsuleError):
                yield from reader_kv.put("x", 1)
            return True

        assert g.run(scenario())


def records_reachable(roots) -> int:
    """How many :class:`Record` objects *roots* reach by references —
    through instances, containers and closures, but not into a network
    node (a writer's clock closes over its client, which reaches every
    server), a module or a class."""
    import gc
    import types

    from repro.capsule import Record
    from repro.runtime.network import Node

    seen, found, todo = set(), 0, list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (Node, type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Record):
            found += 1
        elif isinstance(obj, types.FunctionType):
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            todo.extend(gc.get_referents(obj))
    return found


class TestClientHoldsNoRecords:
    def test_written_and_read_records_are_the_callers_alone(self, mini_gdp):
        """A writer mints from digests and a reader keeps heartbeats: once
        the caller drops the receipt and the read result, the client
        holds none of the 64 records it wrote and read back."""
        g = mini_gdp
        payloads = [bytes([i]) * (16 << 10) for i in range(64)]

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            receipt = yield from writer.append_stream(payloads)
            yield 1.0
            result = yield from g.writer_client.read_range(metadata.name, 1, 64)
            assert receipt.seqno == 64
            assert [r.payload for r in result.records] == payloads
            return writer

        writer = g.run(scenario())
        assert records_reachable([writer, *g.writer_client.readers.values()]) == 0
