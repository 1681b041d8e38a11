"""Placement scope policies and crash recovery."""

import pytest

from repro.errors import GdpError, RoutingError, TimeoutError_
from repro.server import DataCapsuleServer, SegmentedStore


class TestScopePolicies:
    def test_scoped_capsule_invisible_outside_domain(self, mini_gdp):
        """A factory-floor capsule scoped to the edge domain never
        appears in the global GLookup and is unroutable from outside —
        §VII's data-residency control, the Fig. 7 story."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = g.console.design_capsule(
                g.writer_key.public, label="factory-secrets"
            )
            yield from g.console.place_capsule(
                metadata,
                [g.server_edge.metadata],
                scopes=["global.edge"],
            )
            yield 0.5
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"proprietary")
            # In-scope read works (writer_client is in the edge domain).
            record = (yield from g.writer_client.read(metadata.name, 1)).record
            assert record.payload == b"proprietary"
            # Out-of-scope reader cannot even route to the name.
            with pytest.raises((RoutingError, TimeoutError_)):
                yield from g.reader_client.read(metadata.name, 1)
            return metadata

        metadata = g.run(scenario())
        assert g.root_domain.glookup.lookup(metadata.name) == []
        assert g.edge_domain.glookup.lookup(metadata.name) != []

    def test_unscoped_capsule_globally_visible(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"public")
            record = (yield from g.reader_client.read(metadata.name, 1)).record
            return record.payload

        assert g.run(scenario()) == b"public"

    def test_scope_violating_placement_rejected(self, mini_gdp):
        """Hosting on a server that would advertise outside the scope is
        refused at the server's own domain GLookup."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = g.console.design_capsule(
                g.writer_key.public, label="confined"
            )
            # server_root lives in 'global'; the scope allows only the
            # edge domain, so the root-domain registration must fail and
            # the advertisement must drop the entry.
            yield from g.console.place_capsule(
                metadata,
                [g.server_root.metadata],
                scopes=["global.edge"],
            )
            yield 1.0
            return metadata

        metadata = g.run(scenario())
        assert g.root_domain.glookup.lookup(metadata.name) == []


class TestCrashRecovery:
    def test_segmented_server_recovers_records(self, mini_gdp, tmp_path):
        """A server over the on-disk store (``SegmentedStore``)."""
        g = mini_gdp
        durable = DataCapsuleServer(
            g.net, "durable_srv", storage=SegmentedStore(str(tmp_path / "srv"))
        )
        durable.attach(g.r_root)

        def scenario():
            yield from g.bootstrap()
            yield durable.advertise()
            metadata = g.console.design_capsule(g.writer_key.public)
            yield from g.console.place_capsule(metadata, [durable.metadata])
            yield 0.5
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(4):
                yield from writer.append(b"persisted-%d" % i)
            # Crash wipes the in-memory capsule state.
            durable.crash()
            for hosted in durable.hosted.values():
                hosted.capsule._by_digest.clear()
                hosted.capsule._by_seqno.clear()
            durable.restart()
            record = (yield from g.writer_client.read(metadata.name, 3)).record
            return record.payload

        assert g.run(scenario()) == b"persisted-2"

    def test_memorystore_server_loses_unsynced_data(self, mini_gdp):
        """Contrast: a MemoryStore server that crashes and restarts has
        nothing (until anti-entropy repairs it from a sibling)."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"volatile")
            g.server_edge.crash()
            for hosted in g.server_edge.hosted.values():
                hosted.capsule._by_digest.clear()
                hosted.capsule._by_seqno.clear()
                g.server_edge.storage._data.clear()
            g.server_edge.restart()
            with pytest.raises(GdpError):
                yield from g.writer_client.read(metadata.name, 1)
            return True

        assert g.run(scenario())

    def test_crashed_server_is_silent(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_root.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x")
            g.server_root.crash()
            corr_id, future = g.reader_client.request(
                metadata.name,
                {
                    "op": "read_range",
                    "capsule": metadata.name.raw,
                    "first": 1,
                    "last": 1,
                },
                timeout=2.0,
            )
            with pytest.raises(TimeoutError_):
                yield future
            g.server_root.restart()
            record = (yield from g.reader_client.read(metadata.name, 1)).record
            return record.payload

        assert g.run(scenario()) == b"x"

    def test_client_fails_over_to_surviving_replica(self, mini_gdp):
        """With two replicas and one crashed, reads still succeed via
        the other (redundant delegation, §IV-C)."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"redundant")
            yield 1.0  # replicate to both
            g.server_root.crash()
            # The root router's cached route to the dead replica must be
            # aged out for re-resolution; model the operator flushing it.
            g.r_root.flush_fib()
            g.root_domain.glookup.unregister(
                metadata.name, g.server_root.name
            )
            record = (yield from g.reader_client.read(metadata.name, 1)).record
            return record.payload

        assert g.run(scenario()) == b"redundant"
        assert g.server_edge.stats["reads"] == 1
