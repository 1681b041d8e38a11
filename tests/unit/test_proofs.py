"""Position and range proofs: construction, verification, tampering."""

import pytest

from repro.capsule import (
    CapsuleWriter,
    DataCapsule,
    PositionProof,
    RangeProof,
    build_position_proof,
    build_range_proof,
)
from repro.errors import IntegrityError, RecordNotFoundError


@pytest.fixture(
    scope="module",
    params=["chain", "skiplist", "checkpoint:8", "stream:4"],
    ids=["chain", "skiplist", "checkpoint", "stream"],
)
def built(request, owner_key, writer_key):
    """A 40-record capsule per strategy (module-scoped: proofs are
    read-only)."""
    from repro.naming import make_capsule_metadata

    metadata = make_capsule_metadata(
        owner_key,
        writer_key.public,
        pointer_strategy=request.param,
        extra={"proof_fixture": request.param},
    )
    capsule = DataCapsule(metadata)
    writer = CapsuleWriter(capsule.metadata, writer_key)
    for i in range(40):
        capsule.admit(*writer.append_batch([b"payload-%d" % i]))
    return capsule


class TestPositionProof:
    def test_every_record_provable(self, built, writer_key):
        for seqno in range(1, 41):
            proof = build_position_proof(built, seqno)
            digest = proof.verify(built.name, writer_key.public,
                                  expected_seqno=seqno)
            assert digest == built.get(seqno).digest

    def test_verify_record_binds_payload(self, built, writer_key):
        proof = build_position_proof(built, 17)
        proof.verify_record(built.get(17), writer_key.public)

    def test_wrong_record_rejected(self, built, writer_key):
        proof = build_position_proof(built, 17)
        with pytest.raises(IntegrityError):
            proof.verify_record(built.get(18), writer_key.public)

    def test_against_old_heartbeat(self, built, writer_key):
        old = None
        for hb in built.heartbeats():
            if hb.seqno == 20:
                old = hb
        proof = build_position_proof(built, 5, against=old)
        proof.verify(built.name, writer_key.public, expected_seqno=5)

    def test_record_newer_than_heartbeat_rejected(self, built):
        old = next(hb for hb in built.heartbeats() if hb.seqno == 20)
        with pytest.raises(RecordNotFoundError):
            build_position_proof(built, 25, against=old)

    def test_tampered_header_rejected(self, built, writer_key):
        proof = build_position_proof(built, 10)
        proof.headers[-1]["payload_hash"] = b"\x00" * 32
        with pytest.raises(IntegrityError):
            proof.verify(built.name, writer_key.public)

    def test_truncated_proof_rejected(self, built, writer_key):
        proof = build_position_proof(built, 10)
        if len(proof.headers) > 1:
            mangled = PositionProof(proof.heartbeat, proof.headers[:-1])
            with pytest.raises(IntegrityError):
                mangled.verify(built.name, writer_key.public, expected_seqno=10)

    def test_wrong_capsule_rejected(self, built, writer_key, capsule_factory):
        other = capsule_factory()
        proof = build_position_proof(built, 10)
        with pytest.raises(IntegrityError):
            proof.verify(other.name, writer_key.public)

    def test_forged_heartbeat_rejected(self, built, other_key):
        proof = build_position_proof(built, 10)
        from repro.errors import SignatureError

        with pytest.raises(SignatureError):
            proof.verify(built.name, other_key.public)

    def test_wire_roundtrip(self, built, writer_key):
        proof = build_position_proof(built, 23)
        restored = PositionProof.from_wire(proof.to_wire())
        restored.verify(built.name, writer_key.public, expected_seqno=23)

    def test_no_heartbeat_rejected(self, capsule_factory):
        empty = capsule_factory()
        with pytest.raises(RecordNotFoundError):
            build_position_proof(empty, 1)


class TestProofEfficiency:
    def test_skiplist_proofs_logarithmic(self, owner_key, writer_key):
        from repro.naming import make_capsule_metadata

        metadata = make_capsule_metadata(
            owner_key, writer_key.public, pointer_strategy="skiplist",
            extra={"eff": 1},
        )
        capsule = DataCapsule(metadata)
        writer = CapsuleWriter(capsule.metadata, writer_key)
        for i in range(256):
            capsule.admit(*writer.append_batch([b"x"]))
        proof = build_position_proof(capsule, 1)
        # 2*log2(256) = 16 hops upper bound.
        assert len(proof.headers) <= 17

    def test_chain_proofs_linear(self, owner_key, writer_key):
        from repro.naming import make_capsule_metadata

        metadata = make_capsule_metadata(
            owner_key, writer_key.public, pointer_strategy="chain",
            extra={"eff": 2},
        )
        capsule = DataCapsule(metadata)
        writer = CapsuleWriter(capsule.metadata, writer_key)
        for i in range(64):
            capsule.admit(*writer.append_batch([b"x"]))
        proof = build_position_proof(capsule, 1)
        assert len(proof.headers) == 64


class TestRangeProof:
    def test_range_verifies(self, built, writer_key):
        proof = build_range_proof(built, 5, 15)
        proof.verify_records(built.read_range(5, 15), writer_key.public)

    def test_full_range(self, built, writer_key):
        proof = build_range_proof(built, 1, 40)
        proof.verify_records(built.read_range(1, 40), writer_key.public)

    def test_single_record_range(self, built, writer_key):
        proof = build_range_proof(built, 7, 7)
        proof.verify_records([built.get(7)], writer_key.public)

    def test_swapped_record_rejected(self, built, writer_key):
        proof = build_range_proof(built, 5, 10)
        records = built.read_range(5, 10)
        # Substitute a forged record in the middle of the range.
        from repro.capsule.records import Record

        forged = Record(
            built.name, 7, b"FORGED", records[2].pointers
        )
        records[2] = forged
        with pytest.raises(IntegrityError):
            proof.verify_records(records, writer_key.public)

    def test_wrong_count_rejected(self, built, writer_key):
        proof = build_range_proof(built, 5, 10)
        with pytest.raises(IntegrityError):
            proof.verify_records(built.read_range(5, 9), writer_key.public)

    def test_out_of_order_rejected(self, built, writer_key):
        proof = build_range_proof(built, 5, 10)
        records = built.read_range(5, 10)
        records[0], records[1] = records[1], records[0]
        with pytest.raises(IntegrityError):
            proof.verify_records(records, writer_key.public)

    def test_bad_bounds_rejected(self, built):
        with pytest.raises(IntegrityError):
            RangeProof(build_position_proof(built, 5), 6, 5)

    def test_wire_roundtrip(self, built, writer_key):
        proof = build_range_proof(built, 2, 6)
        restored = RangeProof.from_wire(proof.to_wire())
        restored.verify_records(built.read_range(2, 6), writer_key.public)

    def test_size_accounting(self, built):
        small = build_range_proof(built, 39, 40)
        assert small.size_bytes() > 0
