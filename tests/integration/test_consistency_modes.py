"""Consistency modes (§VI-C): anycast reads vs strict all-replica reads."""

import pytest

from repro.errors import GdpError, TimeoutError_


class TestAnycastConsistency:
    def test_anycast_read_can_be_stale_but_never_wrong(self, mini_gdp):
        """During a partition, the remote replica serves an older (but
        verified) state — sequential consistency, not corruption."""
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"v1")
            yield 1.0
            link.fail()
            yield from writer.append(b"v2-unreplicated")
            yield 0.5
            # The reader (root side) sees only v1 — stale, verified.
            latest = (yield from g.reader_client.read_latest(metadata.name)).record
            link.recover()
            return latest

        latest = g.run(scenario())
        assert latest.seqno == 1
        assert latest.payload == b"v1"


class TestStrictConsistency:
    def test_strict_read_finds_newest_replica(self, mini_gdp):
        """With one replica behind, strict mode still returns the
        newest state because it consults every replica."""
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"v1")
            yield 1.0
            link.fail()
            yield from writer.append(b"v2")  # edge replica only
            yield 0.5
            link.recover()
            g.r_root.flush_fib()
            g.r_edge.flush_fib()
            # The writer-side client does the strict read (it can reach
            # both replicas).
            latest = yield from g.writer_client.read_latest_strict(
                metadata.name,
                [g.server_root.name, g.server_edge.name],
            )
            return latest

        latest = g.run(scenario()).record
        assert latest.seqno == 2
        assert latest.payload == b"v2"

    def test_strict_read_blocks_on_unavailable_replica(self, mini_gdp):
        """'Such a reader must block if any single replica is
        unavailable' — we surface that as an error, not silence."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"v1")
            yield 1.0
            g.server_root.crash()
            with pytest.raises((GdpError, TimeoutError_)):
                yield from g.writer_client.read_latest_strict(
                    metadata.name,
                    [g.server_root.name, g.server_edge.name],
                )
            return True

        assert g.run(scenario())

    def test_strict_read_empty_capsule(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            return (
                yield from g.writer_client.read_latest_strict(
                    metadata.name,
                    [g.server_root.name, g.server_edge.name],
                )
            )

        assert g.run(scenario()) is None

    def test_strict_read_requires_replica_list(self, mini_gdp):
        from repro.errors import CapsuleError

        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            with pytest.raises(CapsuleError):
                yield from g.writer_client.read_latest_strict(
                    metadata.name, []
                )
            return True

        assert g.run(scenario())
