"""The threat model, exercised: every §IV-C attack is *detected*."""

import pytest

from repro.adversary import (
    EquivocatingWriter,
    PathAttacker,
    StorageTamperer,
    forge_record,
)
from repro.capsule import CapsuleWriter
from repro.errors import (
    DurabilityError,
    EquivocationError,
    GdpError,
    TimeoutError_,
)
from repro.routing.pdu import T_DATA, T_RESPONSE
from repro.runtime.middleware import DROP, DeliveryMiddleware
from repro.server import DataCapsuleServer


class AckForger(DeliveryMiddleware):
    """An on-path forger at a replica's uplink: it swallows the
    ``replicate_batch`` a replica sends a sibling and answers the
    replica itself under that request's corr_id with a shipped copy of
    ``forge(request)``."""

    def __init__(self, network, forge):
        self.network = network
        self.forge = forge
        self.forged = 0

    def on_deliver(self, link, sender, receiver, message, size):
        payload = getattr(message, "payload", None)
        if not (
            isinstance(sender, DataCapsuleServer)
            and message.ptype == T_DATA
            and isinstance(payload, dict)
            and payload.get("op") == "replicate_batch"
        ):
            return None
        reply = message.response(T_RESPONSE, self.forge(message)).shipped()
        self.network.ctx.schedule(
            0.001, lambda: sender.receive(reply, receiver, link)
        )
        self.forged += 1
        return DROP


class TestOnPathAttacks:
    def test_tampered_response_detected(self, mini_gdp):
        """Bit-flips on response PDUs must surface as verification
        failures at the client, never as silent wrong data."""
        g = mini_gdp
        attacker = PathAttacker(g.net, seed=9)
        attacker.match = lambda pdu: pdu.ptype == T_RESPONSE
        attacker.tamper_rate = 1.0

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"genuine")
            yield 1.0
            attacker.install()
            try:
                with pytest.raises(GdpError):
                    yield from g.reader_client.read(metadata.name, 1)
            finally:
                attacker.uninstall()
            return attacker.stats["tampered"]

        assert g.run(scenario()) >= 1

    def test_black_hole_times_out(self, mini_gdp):
        """A dropping adversary ('effectively creating a black-hole')
        causes a timeout, not corruption."""
        g = mini_gdp
        attacker = PathAttacker(g.net, seed=10)
        attacker.match = lambda pdu: pdu.ptype == T_DATA
        attacker.drop_rate = 1.0

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x")
            attacker.install()
            try:
                corr_id, future = g.reader_client.request(
                    metadata.name,
                    {
                        "op": "read_range",
                        "capsule": metadata.name.raw,
                        "first": 1,
                        "last": 1,
                    },
                    timeout=3.0,
                )
                with pytest.raises(TimeoutError_):
                    yield future
            finally:
                attacker.uninstall()
            return True

        assert g.run(scenario())

    def test_replayed_response_ignored(self, mini_gdp):
        """Replayed response PDUs find no pending request (corr_id
        already consumed) and change nothing."""
        g = mini_gdp
        attacker = PathAttacker(g.net, seed=11)
        attacker.match = lambda pdu: pdu.ptype == T_RESPONSE
        attacker.replay_rate = 1.0
        attacker.delay_seconds = 0.2

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x")
            yield 1.0
            attacker.install()
            record = (yield from g.reader_client.read(metadata.name, 1)).record
            yield 1.0  # replays arrive, are dropped
            attacker.uninstall()
            return record.payload, attacker.stats["replayed"]

        payload, replayed = g.run(scenario())
        assert payload == b"x"
        assert replayed >= 1

    def test_delayed_messages_still_verify(self, mini_gdp):
        g = mini_gdp
        attacker = PathAttacker(g.net, seed=12)
        attacker.delay_rate = 1.0
        attacker.delay_seconds = 0.5
        attacker.match = lambda pdu: pdu.ptype == T_RESPONSE

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x")
            yield 1.0
            attacker.install()
            record = (yield from g.reader_client.read(metadata.name, 1)).record
            attacker.uninstall()
            return record.payload

        assert g.run(scenario()) == b"x"


class TestForgedReplicationAcks:
    """Only a sibling's own signed ``ok`` for this request counts toward
    ``acks``: a path forger answering in its stead cannot fake
    durability (§VI-B)."""

    @pytest.mark.parametrize("forgery", ["unsigned", "flipped", "malformed"])
    def test_forged_ack_does_not_count(self, mini_gdp, forgery):
        g = mini_gdp
        servers = {server.name: server for server in (g.server_root, g.server_edge)}

        def forge(request):
            if forgery == "unsigned":
                return {"ok": True}
            # The sibling's own signed refusal of this very request,
            # its body encoded afresh with ``ok`` flipped after signing.
            refusal = servers[request.dst]._wrap(
                request, None, {"ok": False, "error": "refused"}
            )
            refusal["body"] = {**refusal["body"].value, "ok": True}
            if forgery == "malformed":
                # The sibling's public identity, but a signature that
                # is not bytes: refused, not a crash of the replica.
                refusal["auth"]["signature"] = 5
            return refusal

        forger = AckForger(g.net, forge)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            g.net.delivery.use(forger)
            try:
                with pytest.raises(DurabilityError):
                    yield from writer.append(b"one real copy", acks="all")
            finally:
                g.net.delivery.remove(forger)
            return metadata

        metadata = g.run(scenario())
        assert forger.forged == 1
        copies = {
            server: len(server.hosted[metadata.name].capsule)
            for server in servers.values()
        }
        assert sorted(copies.values()) == [0, 1]  # the sibling holds nothing
        primary = next(server for server, n in copies.items() if n == 1)
        assert primary.metrics.counter("server.replies_refused").value == 1


class TestMaliciousServer:
    def test_tampered_storage_detected_on_read(self, mini_gdp):
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_root.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(4):
                yield from writer.append(b"r%d" % i)
            StorageTamperer(g.server_root).corrupt_record(metadata.name, 2)
            with pytest.raises(GdpError):
                yield from g.reader_client.read(metadata.name, 2)
            return True

        assert g.run(scenario())

    def test_rollback_detected_by_fresh_reader_frontier(self, mini_gdp):
        """A server serving a stale prefix cannot fool a reader that
        has already seen a newer heartbeat."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_root.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            for i in range(5):
                yield from writer.append(b"r%d" % i)
            # Reader learns the true frontier (seqno 5).
            latest = (yield from g.reader_client.read_latest(metadata.name)).record
            assert latest.seqno == 5
            # Server rolls back to seqno 2 and serves stale state.
            StorageTamperer(g.server_root).rollback(metadata.name, keep=2)
            with pytest.raises(GdpError):
                latest = yield from g.reader_client.read_latest(metadata.name)
                # If the read itself succeeded, freshness checking must
                # reject the stale anchor.
            return True

        assert g.run(scenario())

    def test_forged_record_rejected_by_server(self, mini_gdp, owner_keys):
        """A server refuses to store a record without a valid writer
        heartbeat (protecting itself from being framed)."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_root.metadata])
            fake = forge_record(metadata.name, 1, b"injected")
            from repro.capsule import Heartbeat

            mallory = owner_keys(b"mallory")
            fake_hb = Heartbeat.create(
                mallory, metadata.name, 1, fake.digest, 1
            )
            reply = yield g.writer_client.rpc(
                metadata.name,
                {
                    "op": "append_batch",
                    "capsule": metadata.name.raw,
                    "records": [fake.to_wire()],
                    "heartbeat": fake_hb.to_wire(),
                    "acks": "any",
                },
            )
            body = reply.get("body", reply)
            return metadata, body

        metadata, body = g.run(scenario())
        assert not body.get("ok")
        assert body.get("error_kind") != "unknown_op"
        # forge_record cannot reach the metadata anchor; admission
        # refuses that before it would reach mallory's heartbeat
        assert "anchor pointer does not match" in body["error"]
        # Nothing was stored.
        assert g.server_root.stats["appends"] == 0
        entries = g.server_root.storage.load_entries(metadata.name)
        assert list(entries) == []
        assert len(g.server_root.hosted[metadata.name].capsule) == 0


class TestCompromisedGLookup:
    def test_router_rejects_forged_entries(self, mini_gdp, owner_keys):
        """A compromised GLookupService hands out a forged entry; the
        router re-verifies and refuses to install it."""
        from repro.delegation import AdCert, ServiceChain
        from repro.naming import make_server_metadata
        from repro.routing.glookup import RouteEntry

        g = mini_gdp
        g.root_domain.glookup.verify_on_register = False

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"true-data")
            # Forge: a rogue server claims the capsule via a self-issued
            # AdCert and plants it in the (compromised) root GLookup.
            rogue = owner_keys(b"rogue-gl")
            rogue_md = make_server_metadata(rogue, rogue.public)
            forged_adcert = AdCert.issue(rogue, metadata.name, rogue_md.name)
            forged_chain = ServiceChain(metadata, forged_adcert, rogue_md)
            forged_entry = RouteEntry(
                metadata.name,
                router=g.r_root.name,
                principal=rogue_md.name,
                principal_metadata=rogue_md,
                rtcert=None,
                chain=forged_chain,
                router_metadata=g.r_root.metadata,
            )
            g.root_domain.glookup.register(forged_entry, propagate=False)
            # Reader resolves through the root router: the forged entry
            # must be skipped in favour of the honest one.
            record = (yield from g.reader_client.read(metadata.name, 1)).record
            return record.payload

        assert g.run(scenario()) == b"true-data"
        assert g.server_edge.stats["reads"] == 1

    def test_ancestor_path_reverifies_remote_entries(
        self, mini_gdp, owner_keys
    ):
        """A forged entry planted only in a compromised *ancestor*
        GLookupService must not be installed by a child-domain router
        resolving through the hierarchy — the remote service is no more
        trusted than the local one."""
        from repro.delegation import AdCert, ServiceChain
        from repro.errors import RoutingError, TimeoutError_
        from repro.naming import make_capsule_metadata, make_server_metadata
        from repro.routing.glookup import RouteEntry

        g = mini_gdp
        g.root_domain.glookup.verify_on_register = False

        def scenario():
            yield from g.bootstrap()
            # A capsule that exists nowhere; the only "route" is forged.
            ghost_md = make_capsule_metadata(
                owner_keys(b"ghost-owner"), owner_keys(b"ghost-writer").public
            )
            rogue = owner_keys(b"rogue-ancestor")
            rogue_md = make_server_metadata(rogue, rogue.public)
            forged_adcert = AdCert.issue(rogue, ghost_md.name, rogue_md.name)
            forged_chain = ServiceChain(ghost_md, forged_adcert, rogue_md)
            forged_entry = RouteEntry(
                ghost_md.name,
                router=g.r_root.name,
                principal=rogue_md.name,
                principal_metadata=rogue_md,
                rtcert=None,
                chain=forged_chain,
                router_metadata=g.r_root.metadata,
            )
            g.root_domain.glookup.register(forged_entry, propagate=False)
            installs = g.r_edge.metrics.counter("router.verified_installs")
            installs_before = installs.value
            # An edge-domain client resolves through the ancestor path.
            corr_id, future = g.writer_client.request(
                ghost_md.name,
                {"op": "metadata", "capsule": ghost_md.name.raw},
                timeout=3.0,
            )
            try:
                yield future
            except (RoutingError, TimeoutError_):
                pass
            else:
                raise AssertionError("forged route produced an answer")
            # The forged evidence never made it into the edge FIB.
            assert ghost_md.name not in g.r_edge.fib
            assert installs.value == installs_before
            return True

        assert g.run(scenario())


class TestEquivocatingWriter:
    def test_fork_is_cryptographically_attributable(self, capsule_factory, writer_key):
        capsule = capsule_factory("chain")
        writer = CapsuleWriter(capsule.metadata, writer_key)
        base, heartbeat = writer.append(b"honest-prefix")
        capsule.admit([base], heartbeat)
        evil = EquivocatingWriter(capsule, writer_key)
        (rec_a, hb_a), (rec_b, hb_b) = evil.fork_at(base, b"story-a", b"story-b")
        # Both halves verify individually — the writer really signed both.
        hb_a.verify(writer_key.public)
        hb_b.verify(writer_key.public)
        # Together they are proof of equivocation.
        from repro.capsule import detect_equivocation

        with pytest.raises(EquivocationError):
            detect_equivocation(hb_a, hb_b, writer_key.public)

    def test_ssw_capsule_rejects_second_history(self, capsule_factory, writer_key):
        capsule = capsule_factory("chain")
        writer = CapsuleWriter(capsule.metadata, writer_key)
        base, heartbeat = writer.append(b"prefix")
        capsule.admit([base], heartbeat)
        evil = EquivocatingWriter(capsule, writer_key)
        (rec_a, hb_a), (rec_b, hb_b) = evil.fork_at(base, b"a", b"b")
        capsule.admit([rec_a], hb_a)
        with pytest.raises(EquivocationError):
            capsule.admit([rec_b], hb_b)
