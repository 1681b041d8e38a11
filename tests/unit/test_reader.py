"""The verifying reader: trust bootstrapping and rejection paths."""

import pytest

from repro.capsule import (
    CapsuleWriter,
    DataCapsule,
    VerifyingReader,
    build_position_proof,
    build_range_proof,
)
from repro.errors import (
    EquivocationError,
    IntegrityError,
    SecurityError,
)
from repro.crypto.hashing import sha256
from repro.naming import Metadata


def history(capsule, writer_key, payloads):
    """*capsule* holding one record per payload, each admitted as a
    replica admits a run."""
    writer = CapsuleWriter(capsule.metadata, writer_key)
    for payload in payloads:
        capsule.admit(*writer.append_batch([payload]))
    return capsule


@pytest.fixture()
def setup(capsule_factory, writer_key):
    capsule = capsule_factory("skiplist")
    writer = CapsuleWriter(capsule.metadata, writer_key)
    for i in range(15):
        capsule.admit(*writer.append_batch([b"data-%d" % i]))
    reader = VerifyingReader(capsule.name)
    return capsule, writer, reader


def one(capsule, seqno):
    """A one-record range and its proof — the shape every read takes."""
    return [capsule.get(seqno)], build_range_proof(capsule, seqno, seqno)


class TestMetadataBootstrap:
    def test_accept_genuine(self, setup):
        capsule, _, reader = setup
        reader.accept_metadata(capsule.metadata)
        assert reader.capsule.name == capsule.name

    def test_reject_wrong_name(self, setup, capsule_factory):
        _, _, reader = setup
        other = capsule_factory()
        with pytest.raises(Exception):
            reader.accept_metadata(other.metadata)

    def test_reject_forged_signature(self, setup):
        capsule, _, reader = setup
        forged = Metadata(
            capsule.metadata.kind, capsule.metadata.properties, bytes(64)
        )
        with pytest.raises(Exception):
            reader.accept_metadata(forged)

    def test_capsule_before_metadata_raises(self, setup):
        _, _, reader = setup
        with pytest.raises(SecurityError):
            _ = reader.capsule


class TestRecordAcceptance:
    def test_accept_valid(self, setup, writer_key):
        """``accept_record`` is no read's way in any more; this keeps
        the one entry point that still takes a bare position proof."""
        capsule, _, reader = setup
        reader.accept_metadata(capsule.metadata)
        proof = build_position_proof(capsule, 7)
        record = reader.accept_record(capsule.get(7), proof)
        assert record.payload_hash == sha256(b"data-6")
        assert reader.frontier.seqno == 15

    def test_reject_tampered_record(self, setup):
        capsule, _, reader = setup
        reader.accept_metadata(capsule.metadata)
        _, proof = one(capsule, 7)
        from repro.capsule.records import Record

        forged = Record(
            capsule.name, 7, b"EVIL", capsule.get(7).pointers
        )
        with pytest.raises(IntegrityError):
            reader.accept_range([forged], proof)

    def test_accept_range(self, setup):
        capsule, _, reader = setup
        reader.accept_metadata(capsule.metadata)
        proof = build_range_proof(capsule, 3, 9)
        records = reader.accept_range(capsule.read_range(3, 9), proof)
        assert len(records) == 7


class TestFreshness:
    def test_stale_response_detected(self, setup):
        capsule, _, reader = setup
        reader.accept_metadata(capsule.metadata)
        # Reader sees the latest state first.
        reader.accept_range(*one(capsule, 15))
        # A stale replica answers anchored at heartbeat 10.
        old_hb = next(hb for hb in capsule.heartbeats() if hb.seqno == 10)
        with pytest.raises(IntegrityError):
            reader.check_freshness(old_hb)

    def test_equal_frontier_accepted(self, setup):
        capsule, _, reader = setup
        reader.accept_metadata(capsule.metadata)
        records, proof = one(capsule, 15)
        reader.accept_range(records, proof)
        reader.check_freshness(proof.position.heartbeat)  # same seqno: fine

    def test_frontier_advances_monotonically(self, setup, writer_key):
        capsule, writer, reader = setup
        reader.accept_metadata(capsule.metadata)
        reader.accept_range(*one(capsule, 5))
        first_frontier = reader.frontier.seqno
        capsule.admit(*writer.append_batch([b"new"]))
        reader.accept_range(*one(capsule, 16))
        assert reader.frontier.seqno == 16 > first_frontier


class TestEquivocationAtReader:
    def test_forked_writer_detected(self, capsule_factory, writer_key):
        capsule = history(capsule_factory("chain"), writer_key, [b"0", b"1", b"2"])
        # A second history from a writer that lost state.
        fork = history(
            DataCapsule(capsule.metadata, verify_metadata=False), writer_key,
            [b"0", b"1", b"DIVERGED"],
        )
        reader = VerifyingReader(capsule.name)
        reader.accept_metadata(capsule.metadata)
        reader.accept_range(*one(capsule, 3))
        with pytest.raises(EquivocationError):
            reader.accept_range(*one(fork, 3))

    def test_qsw_fork_tolerated(self, capsule_factory, writer_key):
        capsule = history(
            capsule_factory("chain", mode="qsw"), writer_key, [b"0", b"1", b"2"]
        )
        fork = history(
            DataCapsule(capsule.metadata, verify_metadata=False), writer_key,
            [b"0", b"1", b"DIVERGED"],
        )
        reader = VerifyingReader(capsule.name)
        reader.accept_metadata(capsule.metadata)
        reader.accept_range(*one(capsule, 3))
        # Same evidence, declared-QSW capsule: branch, not equivocation.
        reader.accept_range(*one(fork, 3))
        assert len(reader.capsule.heartbeats_at(3)) == 2
