"""Property tests: the capsule replica state is a CRDT (§V-A), and
linearization is deterministic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capsule import CapsuleWriter, DataCapsule, Heartbeat, Record
from repro.capsule.branches import resolve_linearization
from repro.crypto import SigningKey
from repro.errors import GdpError
from repro.naming import make_capsule_metadata

_OWNER = SigningKey.from_seed(b"crdt-owner")
_WRITER = SigningKey.from_seed(b"crdt-writer")
_INTRUDER = SigningKey.from_seed(b"crdt-intruder")


@pytest.fixture(scope="module")
def history():
    """A fixed 14-record history (records + heartbeats), built once —
    hypothesis then permutes/subsets it."""
    metadata = make_capsule_metadata(
        _OWNER, _WRITER.public, extra={"crdt": "props"}
    )
    writer = CapsuleWriter(metadata, _WRITER)
    pairs = [writer.append(b"rec-%d" % i) for i in range(14)]
    return metadata, pairs


def fresh(metadata) -> DataCapsule:
    return DataCapsule(metadata, verify_metadata=False)


def fill(metadata, pairs, indices) -> DataCapsule:
    capsule = fresh(metadata)
    for index in indices:
        record, heartbeat = pairs[index]
        capsule.admit([record], heartbeat)
    return capsule


class TestCrdtLaws:
    @given(st.permutations(range(14)))
    @settings(max_examples=40, deadline=None)
    def test_insertion_order_irrelevant(self, history, order):
        metadata, pairs = history
        capsule = fill(metadata, pairs, order)
        assert capsule.seqnos() == list(range(1, 15))
        assert capsule.verify_history() == 14

    @given(
        st.sets(st.integers(0, 13), max_size=14),
        st.sets(st.integers(0, 13), max_size=14),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_commutative(self, history, idx_a, idx_b):
        metadata, pairs = history
        a1 = fill(metadata, pairs, sorted(idx_a))
        b1 = fill(metadata, pairs, sorted(idx_b))
        a2 = fill(metadata, pairs, sorted(idx_a))
        b2 = fill(metadata, pairs, sorted(idx_b))
        a1.merge_from(b1)
        b2.merge_from(a2)
        assert a1.state_summary() == b2.state_summary()

    @given(
        st.sets(st.integers(0, 13), max_size=14),
        st.sets(st.integers(0, 13), max_size=14),
        st.sets(st.integers(0, 13), max_size=14),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_associative(self, history, idx_a, idx_b, idx_c):
        metadata, pairs = history
        # (a ⊔ b) ⊔ c
        left = fill(metadata, pairs, sorted(idx_a))
        ab = fill(metadata, pairs, sorted(idx_b))
        left.merge_from(ab)
        left.merge_from(fill(metadata, pairs, sorted(idx_c)))
        # a ⊔ (b ⊔ c)
        right = fill(metadata, pairs, sorted(idx_a))
        bc = fill(metadata, pairs, sorted(idx_b))
        bc.merge_from(fill(metadata, pairs, sorted(idx_c)))
        right.merge_from(bc)
        assert left.state_summary() == right.state_summary()

    @given(st.sets(st.integers(0, 13), max_size=14))
    @settings(max_examples=40, deadline=None)
    def test_merge_idempotent(self, history, indices):
        metadata, pairs = history
        capsule = fill(metadata, pairs, sorted(indices))
        before = capsule.state_summary()
        assert capsule.merge_from(capsule.clone()) == 0
        assert capsule.state_summary() == before

    @given(
        st.sets(st.integers(0, 13), max_size=14),
        st.sets(st.integers(0, 13), max_size=14),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_monotone(self, history, idx_a, idx_b):
        """Merging never loses records (join moves up the lattice)."""
        metadata, pairs = history
        a = fill(metadata, pairs, sorted(idx_a))
        before = set(a.seqnos())
        a.merge_from(fill(metadata, pairs, sorted(idx_b)))
        assert before <= set(a.seqnos())
        assert set(a.seqnos()) == {i + 1 for i in idx_a | idx_b}


class TestLinearizationDeterminism:
    @given(st.permutations(range(14)))
    @settings(max_examples=30, deadline=None)
    def test_same_records_same_linearization(self, history, order):
        metadata, pairs = history
        reference = fill(metadata, pairs, range(14))
        shuffled = fill(metadata, pairs, order)
        ref_lin = [r.digest for r in resolve_linearization(reference)]
        shuf_lin = [r.digest for r in resolve_linearization(shuffled)]
        assert ref_lin == shuf_lin


@pytest.fixture(scope="module")
def batch():
    """Four single appends, then a five-record run under one tip
    heartbeat, plus every forged heartbeat the mutations need (signing
    is the slow part, so it happens once)."""
    metadata = make_capsule_metadata(
        _OWNER, _WRITER.public, extra={"crdt": "admit"}
    )
    writer = CapsuleWriter(metadata, _WRITER)
    prefix = [writer.append(b"pre-%d" % i) for i in range(4)]
    run, heartbeat = writer.append_batch([b"run-%d" % i for i in range(5)])
    tip = run[-1]
    wrong_key = Heartbeat.create(
        _INTRUDER, tip.capsule, tip.seqno, tip.digest, heartbeat.timestamp
    )
    non_tip = [
        Heartbeat.create(_WRITER, r.capsule, r.seqno, r.digest, r.seqno)
        for r in run[:-1]
    ]
    return metadata, prefix, run, heartbeat, wrong_key, non_tip


class TestAdmission:
    @given(
        st.sets(st.integers(0, 3), max_size=4),
        st.sampled_from(["tampered_record", "wrong_key", "non_tip"]),
        st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_single_mutation_is_refused_without_trace(
        self, batch, held, mutation, index
    ):
        """``admit`` stores a run only if its heartbeat verifies and
        attests every record: one mutation anywhere raises and leaves the
        replica exactly as it was; the honest run is then admitted once."""
        metadata, prefix, run, heartbeat, wrong_key, non_tip = batch
        replica = fresh(metadata)
        for i in sorted(held):
            replica.admit([prefix[i][0]], prefix[i][1])
        records, signed = list(run), heartbeat
        if mutation == "tampered_record":
            victim = run[index]
            records[index] = Record(
                victim.capsule, victim.seqno, victim.payload + b"!",
                victim.pointers,
            )
        elif mutation == "wrong_key":
            signed = wrong_key
        else:
            signed = non_tip[index % len(non_tip)]
        summary = replica.canonical_summary()
        heartbeats = list(replica.heartbeats())
        with pytest.raises(GdpError):
            replica.admit(records, signed)
        assert replica.canonical_summary() == summary
        assert list(replica.heartbeats()) == heartbeats
        assert replica.admit(list(run), heartbeat) == (list(run), True)
        assert replica.admit(list(run), heartbeat) == ([], False)

    @given(
        st.sets(st.integers(0, 3), max_size=4),
        st.permutations(range(9)),
        st.lists(st.booleans(), min_size=10, max_size=10),
        st.none() | st.integers(0, 8),
        st.integers(0, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_fetched_records_are_stored_once_iff_attested(
        self, batch, stored, order, cuts, tampered, at
    ):
        """Anti-entropy's admission: a history split into a stored part
        and a fetched part, the fetched part offered in any order and
        batching (each batch with the heartbeats at its seqnos, as
        ``sync_fetch_batch`` serves them) with at most one tampered
        record planted among it — exactly the untampered records end up
        stored, each once, and the tampered one is left held."""
        metadata, prefix, run, heartbeat, _, _ = batch
        history = [record for record, _ in prefix] + list(run)
        beats = {record.seqno: [hb] for record, hb in prefix}
        beats[run[-1].seqno] = [heartbeat]
        replica = fresh(metadata)
        for i in sorted(stored):
            replica.admit([prefix[i][0]], prefix[i][1])
        offered = [history[i] for i in order if i not in stored]
        planted = []
        if tampered is not None:
            victim = history[tampered]
            planted = [Record(
                victim.capsule, victim.seqno, victim.payload + b"!",
                victim.pointers,
            )]
            offered.insert(at % (len(offered) + 1), planted[0])
        batches = [[]]
        for record, cut in zip(offered, cuts):
            batches[-1].append(record)
            if cut:
                batches.append([])
        held, new = {}, []
        for records in batches:
            heartbeats = [hb for r in records for hb in beats.get(r.seqno, [])]
            new += replica.admit_fetched(records, heartbeats, held)[0]
        fetched = [history[i] for i in range(9) if i not in stored]
        assert sorted(r.digest for r in new) == sorted(r.digest for r in fetched)
        assert replica.canonical_summary() == tuple(
            (record.seqno, (record.digest,)) for record in history
        )
        assert list(held.values()) == planted
