"""Owner-driven replica migration (§VI) and secure withdrawal."""

import pytest

from repro.errors import CapsuleError
from repro.server import DataCapsuleServer


@pytest.fixture()
def with_third_server(mini_gdp):
    g = mini_gdp
    third = DataCapsuleServer(g.net, "srv_third")
    third.attach(g.r_root)
    return g, third


class TestMigration:
    def test_migrate_preserves_data_and_routing(self, with_third_server):
        g, third = with_third_server

        def scenario():
            yield from g.bootstrap()
            yield third.advertise()
            metadata = g.console.design_capsule(g.writer_key.public)
            placement = yield from g.console.place_capsule(
                metadata, [g.server_root.metadata, g.server_edge.metadata]
            )
            yield 0.5
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(4):
                yield from writer.append(b"pre-migration-%d" % i)
            yield 1.0
            # Move the root replica to the third server.
            placement = yield from g.console.migrate_replica(
                placement, g.server_root.metadata, third.metadata
            )
            yield 1.0
            return metadata, placement

        metadata, placement = g.run(scenario())
        # The new replica has the full history.
        migrated = third.hosted[metadata.name].capsule
        assert migrated.last_seqno == 4
        assert migrated.verify_history() == 4
        # The old replica is gone.
        assert metadata.name not in g.server_root.hosted
        assert g.server_root.storage.load_metadata(metadata.name) is None
        # Placement now names the new server.
        assert third.name in placement.chains
        assert g.server_root.name not in placement.chains

    def test_reads_survive_migration(self, with_third_server):
        g, third = with_third_server

        def scenario():
            yield from g.bootstrap()
            yield third.advertise()
            metadata = g.console.design_capsule(g.writer_key.public)
            placement = yield from g.console.place_capsule(
                metadata, [g.server_root.metadata, g.server_edge.metadata]
            )
            yield 0.5
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"durable-fact")
            yield 1.0
            yield from g.console.migrate_replica(
                placement, g.server_root.metadata, third.metadata
            )
            yield 1.0
            g.r_root.flush_fib()
            record = (yield from g.reader_client.read(metadata.name, 1)).record
            return record.payload

        assert g.run(scenario()) == b"durable-fact"
        # The retired server answered no reads post-migration.
        assert g.server_root.stats["reads"] == 0

    def test_unhost_without_owner_signature_rejected(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_root.metadata])
            reply = yield g.reader_client.rpc(
                g.server_root.name,
                {
                    "op": "unhost",
                    "capsule": metadata.name.raw,
                    "auth": b"\x00" * 64,
                },
            )
            body = reply.get("body", reply)
            return metadata, body

        metadata, body = g.run(scenario())
        assert not body.get("ok")
        assert metadata.name in g.server_root.hosted  # still hosted

    def test_unhost_signature_not_replayable_across_servers(self, mini_gdp):
        """An unhost authorization for server A is useless at server B."""
        from repro import encoding

        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            # Owner signs an unhost for server_root...
            preimage = b"gdp.unhost" + encoding.encode(
                [metadata.name.raw, g.server_root.name.raw]
            )
            auth = g.owner_key.sign(preimage)
            # ...an attacker replays it at server_edge.
            reply = yield g.reader_client.rpc(
                g.server_edge.name,
                {"op": "unhost", "capsule": metadata.name.raw, "auth": auth},
            )
            body = reply.get("body", reply)
            return metadata, body

        metadata, body = g.run(scenario())
        assert not body.get("ok")
        assert metadata.name in g.server_edge.hosted

    def test_migrate_from_nonmember_rejected(self, with_third_server):
        g, third = with_third_server

        def scenario():
            yield from g.bootstrap()
            yield third.advertise()
            metadata = g.console.design_capsule(g.writer_key.public)
            placement = yield from g.console.place_capsule(
                metadata, [g.server_edge.metadata]
            )
            with pytest.raises(CapsuleError):
                yield from g.console.migrate_replica(
                    placement, g.server_root.metadata, third.metadata
                )
            return True

        assert g.run(scenario())


class TestWithdrawal:
    def test_withdraw_removes_route(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x")
            # The server withdraws the capsule name itself.
            g.server_edge.withdraw([metadata.name])
            yield 0.5
            return metadata

        metadata = g.run(scenario())
        assert g.edge_domain.glookup.lookup(metadata.name) == []
        assert g.root_domain.glookup.lookup(metadata.name) == []

    def test_withdraw_by_non_owner_ignored(self, mini_gdp):
        """Another endpoint cannot withdraw someone else's names (the
        attachment-link check)."""
        from repro.routing.pdu import Pdu, T_ADV_WITHDRAW

        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            # The reader (different endpoint, different link) forges a
            # withdraw claiming to be the edge server.
            forged = Pdu(
                g.server_edge.name,
                g.r_edge.name,
                T_ADV_WITHDRAW,
                {"names": [metadata.name.raw]},
            )
            g.writer_client.send_pdu(forged)
            yield 0.5
            return metadata

        metadata = g.run(scenario())
        assert g.edge_domain.glookup.lookup(metadata.name) != []
