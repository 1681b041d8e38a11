"""Property tests: proofs verify for every (strategy, history length,
probe) combination, and any header tampering is caught."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capsule import (
    CapsuleWriter,
    DataCapsule,
    PositionProof,
    build_position_proof,
    build_range_proof,
)
from repro.crypto import SigningKey
from repro.errors import IntegrityError
from repro.naming import make_capsule_metadata

_OWNER = SigningKey.from_seed(b"pp-owner")
_WRITER = SigningKey.from_seed(b"pp-writer")

_CAPSULES: dict[str, DataCapsule] = {}
_LENGTH = 48


def capsule_for(strategy: str) -> DataCapsule:
    """Build (once) a 48-record capsule per strategy."""
    if strategy not in _CAPSULES:
        metadata = make_capsule_metadata(
            _OWNER, _WRITER.public, pointer_strategy=strategy,
            extra={"pp": strategy},
        )
        capsule = DataCapsule(metadata)
        writer = CapsuleWriter(capsule.metadata, _WRITER)
        for i in range(_LENGTH):
            capsule.admit(*writer.append_batch([b"payload-%d" % i]))
        _CAPSULES[strategy] = capsule
    return _CAPSULES[strategy]


strategy_names = st.sampled_from(
    ["chain", "skiplist", "checkpoint:8", "stream:3"]
)


class TestProofProperties:
    @given(strategy_names, st.integers(1, _LENGTH))
    @settings(max_examples=80, deadline=None)
    def test_every_position_provable(self, strategy, seqno):
        capsule = capsule_for(strategy)
        proof = build_position_proof(capsule, seqno)
        digest = proof.verify(
            capsule.name, _WRITER.public, expected_seqno=seqno
        )
        assert digest == capsule.get(seqno).digest

    @given(strategy_names, st.integers(1, _LENGTH), st.integers(1, _LENGTH))
    @settings(max_examples=60, deadline=None)
    def test_every_range_provable(self, strategy, a, b):
        first, last = min(a, b), max(a, b)
        capsule = capsule_for(strategy)
        proof = build_range_proof(capsule, first, last)
        proof.verify_records(
            capsule.read_range(first, last), _WRITER.public
        )

    @given(strategy_names, st.integers(1, _LENGTH), st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_header_tamper_detected(self, strategy, seqno, data):
        capsule = capsule_for(strategy)
        proof = build_position_proof(capsule, seqno)
        headers = [dict(h) for h in proof.headers]
        index = data.draw(st.integers(0, len(headers) - 1))
        field = data.draw(st.sampled_from(["payload_hash", "seqno"]))
        if field == "payload_hash":
            headers[index]["payload_hash"] = bytes(32)
        else:
            headers[index]["seqno"] = headers[index]["seqno"] + 1
        mangled = PositionProof(proof.heartbeat, headers)
        with pytest.raises(IntegrityError):
            mangled.verify(
                capsule.name, _WRITER.public, expected_seqno=seqno
            )

    @given(strategy_names, st.integers(1, _LENGTH))
    @settings(max_examples=40, deadline=None)
    def test_proof_wire_roundtrip(self, strategy, seqno):
        capsule = capsule_for(strategy)
        proof = build_position_proof(capsule, seqno)
        restored = PositionProof.from_wire(proof.to_wire())
        restored.verify(capsule.name, _WRITER.public, expected_seqno=seqno)

    @given(st.integers(1, _LENGTH))
    @settings(max_examples=40, deadline=None)
    def test_skiplist_hops_logarithmic(self, seqno):
        capsule = capsule_for("skiplist")
        proof = build_position_proof(capsule, seqno)
        assert len(proof.headers) <= 2 * 7 + 2  # 2*log2(48)+slack
