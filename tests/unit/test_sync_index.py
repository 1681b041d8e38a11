"""The capsule's Merkle sync index: leaves, range roots, caching, and
the canonical record-set summary anti-entropy compares."""

import pytest

from repro.capsule import CapsuleWriter, DataCapsule
from repro.capsule.capsule import _SYNC_HOLE_LEAF
from repro.errors import IntegrityError


def _replica_pair(capsule_factory, writer_key, count=12):
    """A full replica and an (initially empty) peer of the same capsule,
    plus the minted (record, heartbeat) list."""
    full = capsule_factory("chain")
    writer = CapsuleWriter(full.metadata, writer_key)
    minted = [writer.append(b"idx-%02d" % i) for i in range(count)]
    for record, heartbeat in minted:
        full.admit([record], heartbeat)
    peer = DataCapsule(full.metadata)
    return full, peer, minted


class TestSyncLeaf:
    def test_leaf_is_sorted_digest_concat(self, filled_capsule):
        for seqno in filled_capsule.seqnos():
            digests = sorted(
                r.digest
                for r in filled_capsule.records()
                if r.seqno == seqno
            )
            assert filled_capsule.sync_leaf(seqno) == b"".join(digests)

    def test_missing_seqno_is_the_hole_marker(self, filled_capsule):
        assert filled_capsule.sync_leaf(999) == _SYNC_HOLE_LEAF

    def test_insert_invalidates_leaf(
        self, capsule_factory, writer_key
    ):
        full, peer, minted = _replica_pair(capsule_factory, writer_key, 3)
        assert peer.sync_leaf(2) == _SYNC_HOLE_LEAF  # cached as a hole
        record, heartbeat = minted[1]
        peer.admit([record], heartbeat)
        assert peer.sync_leaf(2) == record.digest


class TestRangeRoot:
    def test_equal_replicas_agree_everywhere(
        self, capsule_factory, writer_key
    ):
        full, peer, minted = _replica_pair(capsule_factory, writer_key)
        for record, heartbeat in minted:
            peer.admit([record], heartbeat)
        for lo, hi in [(1, 12), (1, 6), (7, 12), (5, 5), (1, 100)]:
            assert full.range_root(lo, hi) == peer.range_root(lo, hi)

    def test_single_divergence_localizes(
        self, capsule_factory, writer_key
    ):
        full, peer, minted = _replica_pair(capsule_factory, writer_key)
        for record, heartbeat in minted:
            if record.seqno != 5:
                peer.admit([record], heartbeat)
        assert full.range_root(1, 12) != peer.range_root(1, 12)
        assert full.range_root(5, 5) != peer.range_root(5, 5)
        # Every range avoiding seqno 5 still agrees (bisection's pruning
        # depends on exactly this).
        assert full.range_root(1, 4) == peer.range_root(1, 4)
        assert full.range_root(6, 12) == peer.range_root(6, 12)

    def test_shared_holes_hash_identically(
        self, capsule_factory, writer_key
    ):
        """Two replicas missing the *same* record must agree — otherwise
        anti-entropy would chase a divergence neither side can heal."""
        full, peer_a, minted = _replica_pair(capsule_factory, writer_key)
        peer_b = DataCapsule(full.metadata)
        for record, heartbeat in minted:
            if record.seqno != 7:
                peer_a.admit([record], heartbeat)
                peer_b.admit([record], heartbeat)
        assert peer_a.range_root(1, 12) == peer_b.range_root(1, 12)

    def test_insert_invalidates_cached_roots(
        self, capsule_factory, writer_key
    ):
        full, peer, minted = _replica_pair(capsule_factory, writer_key)
        for record, heartbeat in minted[:-1]:
            peer.admit([record], heartbeat)
        stale = peer.range_root(1, 12)
        record, heartbeat = minted[-1]
        peer.admit([record], heartbeat)
        assert peer.range_root(1, 12) != stale
        assert peer.range_root(1, 12) == full.range_root(1, 12)

    def test_bad_ranges_raise(self, filled_capsule):
        with pytest.raises(IntegrityError):
            filled_capsule.range_root(0, 5)
        with pytest.raises(IntegrityError):
            filled_capsule.range_root(3, 2)


class TestCanonicalSummary:
    def test_order_independent(self, capsule_factory, writer_key):
        full, peer, minted = _replica_pair(capsule_factory, writer_key)
        for record, heartbeat in reversed(minted):
            peer.admit([record], heartbeat)
        assert peer.canonical_summary() == full.canonical_summary()

    def test_detects_any_difference(self, capsule_factory, writer_key):
        full, peer, minted = _replica_pair(capsule_factory, writer_key)
        for record, heartbeat in minted[:-1]:
            peer.admit([record], heartbeat)
        assert peer.canonical_summary() != full.canonical_summary()


class TestHeartbeatsAt:
    def test_returns_stored_heartbeats(self, capsule_factory, writer_key):
        full, _, minted = _replica_pair(capsule_factory, writer_key, 4)
        for record, heartbeat in minted:
            assert full.heartbeats_at(record.seqno) == [heartbeat]
        assert full.heartbeats_at(99) == []
