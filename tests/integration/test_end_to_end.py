"""Full-stack flows: placement, appends, verified reads, anycast."""

import pytest

from repro.errors import CapsuleError, RoutingError, TimeoutError_


class TestBasicFlow:
    def test_append_read_latest(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place("skiplist")
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(8):
                yield from writer.append(b"measurement-%d" % i)
            yield 1.0  # background replication to the root replica
            record = (yield from g.reader_client.read(metadata.name, 5)).record
            assert record.payload == b"measurement-4"
            latest = (yield from g.reader_client.read_latest(metadata.name)).record
            assert latest.seqno == 8
            records = (yield from g.reader_client.read_range(metadata.name, 2, 6)).records
            assert [r.seqno for r in records] == [2, 3, 4, 5, 6]
            return True

        assert g.run(scenario())

    def test_reader_verifies_range_history(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(6):
                yield from writer.append(b"r%d" % i)
            yield 1.0
            return (yield from g.reader_client.read_range(metadata.name, 1, 6))

        result = g.run(scenario())
        assert [r.seqno for r in result.records] == [1, 2, 3, 4, 5, 6]
        assert result.proof.last == 6

    def test_empty_capsule_latest_none(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            return (yield from g.reader_client.read_latest(metadata.name))

        assert g.run(scenario()) is None

    def test_read_missing_record_fails(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"only")
            with pytest.raises(CapsuleError):
                yield from g.reader_client.read(metadata.name, 7)
            return True

        assert g.run(scenario())

    def test_unknown_capsule_unroutable(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            from repro.naming import GdpName

            ghost = GdpName(b"\xee" * 32)
            with pytest.raises((RoutingError, TimeoutError_)):
                yield from g.reader_client.read(ghost, 1)
            return True

        assert g.run(scenario())


class TestAnycastLocality:
    def test_writer_appends_hit_local_replica(self, mini_gdp):
        """The writer sits in the edge domain; anycast must deliver its
        appends to the edge server, not the root one."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(5):
                yield from writer.append(b"x%d" % i)
            yield 1.0  # let fire-and-forget propagation finish
            return True

        g.run(scenario())
        assert g.server_edge.stats["appends"] == 5
        assert g.server_root.stats["appends"] == 0
        # Background propagation filled the remote replica anyway.
        assert g.server_root.stats["replications"] == 5

    def test_reader_reads_from_its_domain(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(3):
                yield from writer.append(b"x%d" % i)
            yield 1.0  # background replication
            yield from g.reader_client.read(metadata.name, 2)
            return True

        g.run(scenario())
        # reader_client is attached at the root router.
        assert g.server_root.stats["reads"] >= 1
        assert g.server_edge.stats["reads"] == 0

    def test_single_replica_capsule_reached_cross_domain(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"solo")
            record = (yield from g.reader_client.read(metadata.name, 1)).record
            return record.payload

        assert g.run(scenario()) == b"solo"
        assert g.server_edge.stats["reads"] == 1


class TestResponseSecurity:
    def test_responses_carry_valid_chains(self, mini_gdp):
        """Reads against the capsule name succeed only because the
        responding server presents a verifying delegation chain; every
        client verifies, so the read is the assertion itself."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x")
            yield 1.0
            record = (yield from g.reader_client.read(metadata.name, 1)).record
            return record.payload

        assert g.run(scenario()) == b"x"

    def test_hmac_session_fast_path(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_root.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x")
            # Establish a session with the specific server and use it.
            yield from g.reader_client.establish_session(g.server_root.name)
            body = yield from g.reader_client.session_request(
                g.server_root.name,
                {
                    "op": "read_range",
                    "capsule": metadata.name.raw,
                    "first": 1,
                    "last": 1,
                },
            )
            return body["records"][0]["payload"]

        assert g.run(scenario()) == b"x"
