"""Durability (ack) modes and the hole window (§VI-B)."""

import pytest

from repro.errors import DurabilityError


class TestAckModes:
    def test_any_acks_one(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            receipt = yield from writer.append(b"fast", acks="any")
            return receipt.acks

        assert g.run(scenario()) == 1

    def test_all_collects_every_replica(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            receipt = yield from writer.append(b"durable", acks="all")
            return receipt.acks

        assert g.run(scenario()) == 2

    def test_quorum_of_two_is_two(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            receipt = yield from writer.append(b"q", acks="quorum")
            return receipt.acks

        assert g.run(scenario()) == 2

    def test_all_with_crashed_sibling_reports_failure(self, mini_gdp):
        """The durable path must not lie: with a dead sibling the writer
        is told the requirement was not met ('the writer must block and
        retry')."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            g.server_root.crash()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            with pytest.raises(DurabilityError):
                yield from writer.append(b"doomed", acks="all")
            return True

        assert g.run(scenario())

    def test_any_succeeds_despite_crashed_sibling(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            g.server_root.crash()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            receipt = yield from writer.append(b"fine", acks="any")
            return receipt.acks

        assert g.run(scenario()) == 1

    def test_retry_after_recovery_succeeds(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            g.server_root.crash()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            with pytest.raises(DurabilityError):
                yield from writer.append(b"r1", acks="all")
            g.server_root.restart()
            # The record was already minted; a retry is a fresh append of
            # the next payload plus anti-entropy catching r1 up — here we
            # just verify the durable path works again.
            receipt = yield from writer.append(b"r2", acks="all")
            return receipt.acks

        assert g.run(scenario()) == 2


class TestHoleWindow:
    def test_fast_path_crash_leaves_hole_on_survivor(self, mini_gdp):
        """The §VI-B window: single-ack append, fronting server dies
        before propagation -> the surviving replica has a hole."""
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"r1", acks="any")
            yield 1.0  # r1 reaches both replicas
            link.fail()  # isolate the edge: propagation of r2 will fail
            yield from writer.append(b"r2", acks="any")
            yield from writer.append(b"r3", acks="any")
            yield 0.5
            # The edge server now dies losing r2/r3 (memory store).
            g.server_edge.crash()
            link.recover()
            return metadata

        metadata = g.run(scenario())
        survivor = g.server_root.hosted[metadata.name].capsule
        assert survivor.last_seqno == 1  # r2, r3 permanently lost
        # The loss is *detectable*: the writer's heartbeat frontier (3)
        # exceeds what the survivor can prove.
        assert survivor.latest_heartbeat.seqno == 1

    def test_all_mode_closes_the_window(self, mini_gdp):
        """With acks=all the same crash loses nothing acknowledged."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"r1", acks="all")
            yield from writer.append(b"r2", acks="all")
            g.server_edge.crash()
            return metadata

        metadata = g.run(scenario())
        survivor = g.server_root.hosted[metadata.name].capsule
        assert survivor.last_seqno == 2
        assert survivor.verify_history() == 2
