"""Retry and idempotency semantics: duplicate appends, hole reads, and
org-level delegation through the owner console."""

import pytest

from repro.errors import CapsuleError


class TestAppendIdempotency:
    def test_duplicate_append_is_safe(self, mini_gdp):
        """A writer that times out and re-sends the same record (same
        seqno, same digest) must not corrupt anything or double-push."""
        g = mini_gdp
        received = []

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            yield from g.reader_client.subscribe(
                metadata.name, lambda r, h: received.append(r.seqno)
            )
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            record, heartbeat = writer.writer.append(b"once")  # local mint
            payload = {
                "op": "append_batch",
                "capsule": metadata.name.raw,
                "records": [record.to_wire()],
                "heartbeat": heartbeat.to_wire(),
                "acks": "any",
            }
            # Send the identical append twice (a client retry).
            reply1 = yield g.writer_client.rpc(metadata.name, dict(payload))
            reply2 = yield g.writer_client.rpc(metadata.name, dict(payload))
            yield 2.0
            body1 = reply1.get("body", reply1)
            body2 = reply2.get("body", reply2)
            return body1, body2, metadata

        body1, body2, metadata = g.run(scenario())
        assert body1.get("ok") and body2.get("ok")
        capsule = g.server_edge.hosted[metadata.name].capsule
        assert len(capsule) == 1
        assert received == [1]  # exactly one push despite the retry

    def test_stale_lower_seqno_append_rejected_shape(self, mini_gdp):
        """An append whose pointers don't match the strategy for its
        claimed position is refused."""
        from repro.capsule import Heartbeat, Record
        from repro.crypto.hashing import HashPointer

        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            r1 = (yield from writer.append(b"r1")).record
            # Forge record 3 skipping record 2 (bad shape for 'chain').
            bogus = Record(
                metadata.name, 3, b"skip", [HashPointer(2, r1.digest)]
            )
            heartbeat = Heartbeat.create(
                g.writer_key, metadata.name, 3, bogus.digest, 99
            )
            reply = yield g.writer_client.rpc(
                metadata.name,
                {
                    "op": "append_batch",
                    "capsule": metadata.name.raw,
                    "records": [bogus.to_wire()],
                    "heartbeat": heartbeat.to_wire(),
                    "acks": "any",
                },
            )
            return reply.get("body", reply)

        body = g.run(scenario())
        assert not body.get("ok")
        assert body.get("error_kind") != "unknown_op"
        assert "claims seqno 2 but digest belongs to 1" in body["error"]


class TestHoleReads:
    def test_range_over_hole_reports_error(self, mini_gdp):
        """A replica with a hole refuses the range (rather than serving
        a gapped, unverifiable run)."""
        g = mini_gdp
        link = g.r_edge.link_to(g.r_root)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"r1")
            yield 1.0
            link.fail()
            yield from writer.append(b"r2-lost")
            yield 0.5
            link.recover()
            g.r_edge.flush_fib()
            g.r_root.flush_fib()
            # r3 reaches both replicas via... the writer is edge-side,
            # so append r3, let background push reach root (r2 missing
            # there -> hole at root).
            yield from writer.append(b"r3")
            yield 1.0
            root_capsule = g.server_root.hosted[metadata.name].capsule
            if root_capsule.holes():
                with pytest.raises(CapsuleError):
                    yield from g.reader_client.read_range(metadata.name, 1, 3)
                return True
            return None  # replication healed too fast; nothing to assert

        result = g.run(scenario())
        assert result in (True, None)


class TestOrgDelegationViaConsole:
    def test_console_delegates_through_organization(self, mini_gdp, owner_keys):
        from repro.delegation import OrgMembership
        from repro.naming import make_organization_metadata

        g = mini_gdp
        org_key = owner_keys(b"console-org")
        org_md = make_organization_metadata(org_key)
        membership = OrgMembership.issue(
            org_key, org_md.name, g.server_edge.name
        )
        metadata = g.console.design_capsule(g.writer_key.public)
        chain = g.console.delegate(
            metadata,
            g.server_edge.metadata,
            org_metadata=org_md,
            membership=membership,
        )
        assert chain.org_metadata is org_md
        chain.verify()

        def scenario():
            yield from g.bootstrap()
            yield from g.console.place(metadata, {g.server_edge.name: chain})
            yield 0.5
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"via-org")
            record = (yield from g.writer_client.read(metadata.name, 1)).record
            return record.payload

        assert g.run(scenario()) == b"via-org"
