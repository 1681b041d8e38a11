"""Merkle-audited log: O(log n) third-party audits."""

import pytest

from repro.caapi.audit import AuditedLog, AuditProof, _parse_summary
from repro.errors import CapsuleError, IntegrityError


@pytest.fixture()
def audit_log(mini_gdp):
    g = mini_gdp
    log = AuditedLog(
        g.writer_client, g.console, [g.server_edge.metadata],
        writer_key=g.writer_key, summary_interval=4,
    )
    return g, log


class TestAuditedLog:
    def test_summaries_interleave(self, audit_log):
        g, log = audit_log

        def scenario():
            yield from g.bootstrap()
            yield from log.create()
            for i in range(9):
                yield from log.append(b"entry-%d" % i)
            yield 0.5
            return log.name

        name = g.run(scenario())
        capsule = g.server_edge.hosted[name].capsule
        # 9 data + 2 summaries (after 4 and 8) = 11 capsule records.
        assert capsule.last_seqno == 11
        summaries = [
            r.seqno for r in capsule.records()
            for stored in g.server_edge.stored_records(name, r.seqno)
            if _parse_summary(stored.payload) is not None
        ]
        assert summaries == [5, 10]

    def test_audit_proof_verifies(self, audit_log):
        g, log = audit_log

        def scenario():
            yield from g.bootstrap()
            yield from log.create()
            for i in range(8):
                yield from log.append(b"entry-%d" % i)
            proof = yield from log.audit_entry(3)
            return proof

        proof = g.run(scenario())
        assert proof.payload == b"entry-2"
        proof.verify(log.name, g.writer_key.public)

    def test_every_covered_entry_auditable(self, audit_log):
        g, log = audit_log

        def scenario():
            yield from g.bootstrap()
            yield from log.create()
            for i in range(8):
                yield from log.append(b"entry-%d" % i)
            proofs = []
            for index in range(1, 9):
                proofs.append((yield from log.audit_entry(index)))
            return proofs

        proofs = g.run(scenario())
        for index, proof in enumerate(proofs, start=1):
            proof.verify(log.name, g.writer_key.public)
            assert proof.payload == b"entry-%d" % (index - 1)

    def test_uncovered_entry_rejected(self, audit_log):
        g, log = audit_log

        def scenario():
            yield from g.bootstrap()
            yield from log.create()
            for i in range(6):  # summary only after entry 4
                yield from log.append(b"entry-%d" % i)
            with pytest.raises(CapsuleError):
                yield from log.audit_entry(6)
            return True

        assert g.run(scenario())

    def test_forged_payload_fails_audit(self, audit_log):
        g, log = audit_log

        def scenario():
            yield from g.bootstrap()
            yield from log.create()
            for i in range(4):
                yield from log.append(b"entry-%d" % i)
            proof = yield from log.audit_entry(2)
            return proof

        proof = g.run(scenario())
        forged = AuditProof(
            proof.entry_index,
            b"FORGED",
            proof.summary_record,
            proof.position_proof,
            proof.inclusion_proof,
        )
        with pytest.raises(IntegrityError):
            forged.verify(log.name, g.writer_key.public)

    def test_wrong_index_fails_audit(self, audit_log):
        g, log = audit_log

        def scenario():
            yield from g.bootstrap()
            yield from log.create()
            for i in range(4):
                yield from log.append(b"entry-%d" % i)
            proof = yield from log.audit_entry(2)
            return proof

        proof = g.run(scenario())
        mismatched = AuditProof(
            3,  # claims a different slot
            proof.payload,
            proof.summary_record,
            proof.position_proof,
            proof.inclusion_proof,
        )
        with pytest.raises(IntegrityError):
            mismatched.verify(log.name, g.writer_key.public)

    def test_non_summary_pin_rejected(self, audit_log):
        """A prover pinning a *data* record instead of a summary is
        caught."""
        from repro.capsule.proofs import build_position_proof

        g, log = audit_log

        def scenario():
            yield from g.bootstrap()
            yield from log.create()
            for i in range(4):
                yield from log.append(b"entry-%d" % i)
            proof = yield from log.audit_entry(2)
            # Swap the summary for a data record with a valid capsule
            # proof of its own.
            capsule = g.server_edge.hosted[log.name].capsule
            (data_record,) = g.server_edge.stored_records(log.name, 1)
            data_proof = build_position_proof(capsule, 1)
            return proof, data_record, data_proof

        proof, data_record, data_proof = g.run(scenario())
        hostile = AuditProof(
            proof.entry_index,
            proof.payload,
            data_record,
            data_proof,
            proof.inclusion_proof,
        )
        with pytest.raises(IntegrityError):
            hostile.verify(log.name, g.writer_key.public)

    def test_substituted_summary_is_refused(self, audit_log, monkeypatch):
        """A replica asked for summary 2 (seqno 10) answers with summary
        1 (seqno 5) under its genuine proof: the summary read refuses a
        reply that is not the record it asked for."""
        g, log = audit_log
        server = g.server_edge
        honest = server.on_request

        def substitute(pdu):
            for field in ("first", "last"):
                if pdu.payload.get(field) == 10:
                    pdu.payload[field] = 5
            return honest(pdu)

        def scenario():
            yield from g.bootstrap()
            yield from log.create()
            for i in range(8):
                yield from log.append(b"entry-%d" % i)
            monkeypatch.setattr(server, "on_request", substitute)
            with pytest.raises(IntegrityError, match="does not continue"):
                yield from log.audit_entry(6)
            return True

        assert g.run(scenario())
