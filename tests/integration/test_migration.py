"""Owner-driven replica migration (§VI) and secure withdrawal."""

import pytest

from repro.delegation import Placement, ServiceChain
from repro.errors import CapsuleError, GdpError
from repro.server import DataCapsuleServer
from repro.server.secure import open_response


@pytest.fixture()
def with_third_server(mini_gdp):
    g = mini_gdp
    third = DataCapsuleServer(g.net, "srv_third")
    third.attach(g.r_root)
    return g, third


def _signed(g, capsule, version, servers) -> Placement:
    """A placement the owner signed (what an eavesdropper may replay)."""
    placement = Placement(capsule, version, servers)
    placement.signature = g.owner_key.sign(placement.signing_preimage())
    return placement


def _host(g, server, metadata, chain, placement=None, **extra):
    """Process body: the reader — not the owner — sends *server* a
    ``host`` op; returns the (verified) reply body, refusals included."""
    payload = {
        "op": "host",
        "capsule": metadata.name.raw,
        "metadata": metadata.to_wire(),
        "chain": chain.to_wire(),
        **extra,
    }
    if placement is not None:
        payload["placement"] = placement.to_wire()
    corr_id, future = g.reader_client.request(server, payload)
    wrapped = yield future
    body, _ = open_response(
        wrapped, requester=g.reader_client.name, corr_id=corr_id, server=server
    )
    return body


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
        # No record or heartbeat remains; the stored placement retires it.
        storage = g.server_root.storage
        assert list(storage.load_entries(metadata.name)) == []
        assert storage.load_hosting(metadata.name)["placement"] == placement.to_wire()
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
        """A placement retiring the server, but not signed by the owner,
        is refused and the replica stays."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_root.metadata])
            chain = g.server_root.hosted[metadata.name].chain
            retiring = Placement(metadata.name, 2, [g.server_edge.name], b"\x00" * 64)
            body = yield from _host(g, g.server_root.name, metadata, chain, retiring)
            return metadata, body

        metadata, body = g.run(scenario())
        assert not body.get("ok")
        assert metadata.name in g.server_root.hosted  # still hosted

    def test_unhost_signature_not_replayable_across_servers(self, mini_gdp):
        """An owner-signed placement for another capsule is useless for
        this one, re-addressed or not."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            other = yield from g.place(label="other")
            # The owner retires server_edge from the *other* capsule...
            signed = _signed(g, other.name, 2, [g.server_root.name])
            # ...and an attacker replays it against this one, as signed
            # and with the capsule field re-pointed.
            chain = g.server_edge.hosted[metadata.name].chain
            bodies = []
            for capsule in (other.name, metadata.name):
                replayed = Placement(capsule, 2, signed.servers, signed.signature)
                bodies.append((yield from _host(
                    g, g.server_edge.name, metadata, chain, replayed
                )))
            return metadata, bodies

        metadata, bodies = g.run(scenario())
        assert not any(body.get("ok") for body in bodies)
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


class TestPlacementAuthority:
    """Only the owner's newest placement changes where a capsule lives."""

    def test_stranger_rehost_keeps_replica(self, mini_gdp):
        """A non-owner re-sends ``host`` from public material: the chain
        the ``metadata`` op hands anyone, an empty sibling list, the
        newest placement replayed, and that placement with its version
        raised but not re-signed."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = g.console.design_capsule(g.writer_key.public)
            placement = yield from g.console.place_capsule(
                metadata, [g.server_root.metadata, g.server_edge.metadata]
            )
            yield 0.5
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(4):
                yield from writer.append(b"kept-%d" % i, acks="all")
            public, _ = yield from g.reader_client.ask(
                g.server_root.name,
                {"op": "metadata", "capsule": metadata.name.raw},
            )
            chain = ServiceChain.from_wire(public["chain"])
            raised = Placement(
                metadata.name, placement.version + 1, [g.server_root.name],
                placement.signature,
            )
            bodies = []
            for forged in (None, placement, raised):
                bodies.append((yield from _host(
                    g, g.server_root.name, metadata, chain, forged, siblings=[]
                )))
            return metadata, bodies

        metadata, bodies = g.run(scenario())
        assert [bool(body.get("ok")) for body in bodies] == [False, True, False]
        hosted = g.server_root.hosted[metadata.name]
        assert hosted.capsule.last_seqno == 4
        assert hosted.siblings == [g.server_edge.name]

    def test_survivor_acks_all_after_migration(self, with_third_server):
        """After root -> third, a survivor's siblings name the new
        replica, so ``acks="all"`` reaches it synchronously."""
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
            yield from writer.append(b"before", acks="all")
            yield from g.console.migrate_replica(
                placement, g.server_root.metadata, third.metadata
            )
            yield 1.0
            receipt = yield from writer.append(b"after", acks="all")
            return metadata, receipt, third.hosted[metadata.name].capsule.seqnos()

        metadata, receipt, held = g.run(scenario())
        assert receipt.server == g.server_edge.name
        assert receipt.acks == 2
        assert 2 in held  # replicated on the write path, not by gossip
        assert g.server_edge.hosted[metadata.name].siblings == [third.name]

    def test_superseded_placement_does_not_rehost(self, with_third_server):
        g, third = with_third_server

        def scenario():
            yield from g.bootstrap()
            yield third.advertise()
            metadata = g.console.design_capsule(g.writer_key.public)
            first = yield from g.console.place_capsule(
                metadata, [g.server_root.metadata, g.server_edge.metadata]
            )
            yield 0.5
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x", acks="all")
            final = yield from g.console.migrate_replica(
                first, g.server_root.metadata, third.metadata
            )
            widened = _signed(g, metadata.name, 2, first.servers + [third.name])
            root_chain = first.chains[g.server_root.name]
            edge_chain = final.chains[g.server_edge.name]
            bodies = []
            for old in (first, widened):
                bodies.append((yield from _host(
                    g, g.server_root.name, metadata, root_chain, old
                )))
            g.server_root.crash()
            g.server_root.restart()
            yield 0.5
            for old in (first, widened):
                bodies.append((yield from _host(
                    g, g.server_root.name, metadata, root_chain, old
                )))
                bodies.append((yield from _host(
                    g, g.server_edge.name, metadata, edge_chain, old
                )))
            return metadata, bodies, final

        metadata, bodies, final = g.run(scenario())
        assert all(body.get("ok") for body in bodies)  # stale: a no-op
        assert metadata.name not in g.server_root.hosted
        storage = g.server_root.storage
        assert list(storage.load_entries(metadata.name)) == []
        assert storage.load_hosting(metadata.name)["placement"] == final.to_wire()
        assert g.server_edge.hosted[metadata.name].siblings == [third.name]
        assert third.hosted[metadata.name].siblings == [g.server_edge.name]

    def test_single_replica_move_keeps_history(self, with_third_server):
        g, third = with_third_server

        def scenario():
            yield from g.bootstrap()
            yield third.advertise()
            metadata = g.console.design_capsule(g.writer_key.public)
            placement = yield from g.console.place_capsule(
                metadata, [g.server_edge.metadata]
            )
            yield 0.5
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(5):
                yield from writer.append(b"only-copy-%d" % i, acks="all")
            placement = yield from g.console.migrate_replica(
                placement, g.server_edge.metadata, third.metadata
            )
            return metadata, placement

        metadata, placement = g.run(scenario())
        assert placement.servers == [third.name]
        assert metadata.name not in g.server_edge.hosted
        moved = third.hosted[metadata.name]
        assert moved.capsule.seqnos() == [1, 2, 3, 4, 5]
        assert moved.capsule.verify_history() == 5
        assert moved.siblings == []

    def test_writes_during_a_move_are_kept(self, with_third_server):
        """A writer keeps appending while its only replica moves: every
        append acked by a replica is on the new server afterwards."""
        g, third = with_third_server

        def scenario():
            yield from g.bootstrap()
            yield third.advertise()
            metadata = g.console.design_capsule(g.writer_key.public)
            placement = yield from g.console.place_capsule(
                metadata, [g.server_edge.metadata]
            )
            yield 0.5
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            acked = []

            def keep_writing():
                for i in range(200):
                    try:
                        receipt = yield from writer.append(b"w-%d" % i, acks="all")
                    except GdpError:
                        pass  # refused while the placement changes: not acked
                    else:
                        acked.append(receipt.record.seqno)
                    yield 0.005

            writing = g.net.ctx.spawn(keep_writing(), name="writer")
            yield 0.05
            yield from g.console.migrate_replica(
                placement, g.server_edge.metadata, third.metadata
            )
            yield writing.completion
            return metadata, acked

        metadata, acked = g.run(scenario())
        held = set(third.hosted[metadata.name].capsule.seqnos())
        assert acked and set(acked) <= held


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
