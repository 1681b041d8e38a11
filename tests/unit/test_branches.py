"""Branch analysis: partial order, linearization, convergence."""

import pytest

from repro.capsule import DataCapsule, QuasiWriter
from repro.capsule.branches import (
    branch_points,
    common_prefix_length,
    concurrent,
    is_linear,
    partial_order,
    resolve_linearization,
)


@pytest.fixture()
def branched(capsule_factory, writer_key):
    """A QSW capsule with one branch at seqno 3: [1,2,3] then {4a} / {4b,5b}."""
    capsule = capsule_factory("chain", mode="qsw")
    writer = QuasiWriter(capsule.metadata, writer_key)
    for i in range(4):
        capsule.admit(*writer.append_batch([b"main-%d" % i]))  # seqnos 1..4
    # Second writer instance resumed from seqno 3.
    side = DataCapsule(capsule.metadata, verify_metadata=False)
    side.admit(list(capsule.records())[:3], capsule.heartbeats_at(3)[0])
    recovered = QuasiWriter(side.metadata, writer_key)
    recovered.resume_from_tip(side.get(3))
    side.admit(*recovered.append_batch([b"side-4"]))
    side.admit(*recovered.append_batch([b"side-5"]))
    merged = capsule.clone()
    merged.merge_from(side)
    return merged


class TestLinearHistories:
    def test_linear_is_linear(self, filled_capsule):
        assert is_linear(filled_capsule)
        assert branch_points(filled_capsule) == []

    def test_linearization_is_seqno_order(self, filled_capsule):
        lin = resolve_linearization(filled_capsule)
        assert [r.seqno for r in lin] == list(range(1, 13))

    def test_empty_capsule(self, capsule_factory):
        capsule = capsule_factory()
        assert is_linear(capsule)
        assert resolve_linearization(capsule) == []


class TestBranchedHistories:
    def test_branch_detected(self, branched):
        assert not is_linear(branched)
        points = branch_points(branched)
        assert len(points) == 1
        assert points[0].seqno == 3

    def test_two_tips(self, branched):
        tips = branched.tips()
        assert len(tips) == 2
        assert sorted(t.seqno for t in tips) == [4, 5]

    def test_partial_order_respects_ancestry(self, branched):
        order = partial_order(branched)
        r3 = branched.get(3)
        for tip in branched.tips():
            assert r3.digest in order[tip.digest]

    def test_concurrent_branch_records(self, branched):
        a, b = branched.get_all(4)
        assert concurrent(branched, a, b)
        r3 = branched.get(3)
        assert not concurrent(branched, r3, a)

    def test_linearization_deterministic_across_replicas(self, branched):
        lin_a = resolve_linearization(branched)
        lin_b = resolve_linearization(branched.clone())
        assert [r.digest for r in lin_a] == [r.digest for r in lin_b]

    def test_linearization_extends_partial_order(self, branched):
        lin = resolve_linearization(branched)
        position = {r.digest: i for i, r in enumerate(lin)}
        order = partial_order(branched)
        for record in branched.records():
            for ancestor in order[record.digest]:
                assert position[ancestor] < position[record.digest]

    def test_common_prefix(self, branched, capsule_factory, writer_key):
        # Replicas that only share records 1..3 agree on exactly that.
        partial = DataCapsule(branched.metadata, verify_metadata=False)
        partial.admit(list(branched.records())[:3], branched.heartbeats_at(3)[0])
        assert common_prefix_length([branched, partial]) == 3

    def test_common_prefix_identical_replicas(self, branched):
        assert common_prefix_length([branched, branched.clone()]) == len(
            list(branched.records())
        )

    def test_common_prefix_empty_input(self):
        assert common_prefix_length([]) == 0


class TestStrongEventualConsistency:
    def test_converged_replicas_agree(self, capsule_factory, writer_key):
        """Replicas receiving the same branched records in different
        orders converge to identical linearizations."""
        capsule = capsule_factory("chain", mode="qsw")
        writer = QuasiWriter(capsule.metadata, writer_key)
        for i in range(3):
            capsule.admit(*writer.append_batch([b"%d" % i]))
        side = DataCapsule(capsule.metadata, verify_metadata=False)
        side.admit(list(capsule.records())[:2], capsule.heartbeats_at(2)[0])
        recovered = QuasiWriter(side.metadata, writer_key)
        recovered.resume_from_tip(side.get(2))
        side.admit(*recovered.append_batch([b"fork"]))

        all_records = list(capsule.records()) + [list(side.records())[-1]]
        beats = {h.digest: h for h in [*capsule.heartbeats(), *side.heartbeats()]}
        replica_a = DataCapsule(capsule.metadata, verify_metadata=False)
        replica_b = DataCapsule(capsule.metadata, verify_metadata=False)
        for record in all_records:
            replica_a.admit([record], beats[record.digest])
        for record in reversed(all_records):
            replica_b.admit([record], beats[record.digest])
        lin_a = [r.digest for r in resolve_linearization(replica_a)]
        lin_b = [r.digest for r in resolve_linearization(replica_b)]
        assert lin_a == lin_b
