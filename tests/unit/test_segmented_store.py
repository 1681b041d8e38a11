"""SegmentedStore engine specifics: sealing, the persisted sync index,
tiering, checkpoint compaction, recovery events, and stores whose
``.idx`` files carry the older layout.  (Cross-backend contract
coverage lives in ``test_storage.py``; crash-point sweeps in
``tests/torture/``.)"""

import hashlib
import os
import struct

import pytest

from repro import encoding
from repro.baselines.s3sim import MemoryObjectTier
from repro.capsule import CapsuleWriter, DataCapsule
from repro.server.segmented import SegmentedStore, record_wire_digest
from repro.server.storage import replay


@pytest.fixture()
def filled(capsule_factory, writer_key):
    """A 30-record capsule (checkpoint heartbeats every 8) plus its
    (record, heartbeat) pairs."""
    capsule = capsule_factory(strategy="checkpoint:8")
    writer = CapsuleWriter(capsule.metadata, writer_key)
    pairs = [writer.append(b"seg-%04d" % i * 4) for i in range(30)]
    for record, heartbeat in pairs:
        capsule.admit([record], heartbeat)
    return capsule, pairs


def fill_store(store, capsule, pairs):
    store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
    entries = []
    for record, heartbeat in pairs:
        entries.append(("r", record.to_wire()))
        entries.append(("h", heartbeat.to_wire()))
    store.append_entries(capsule.name, entries)
    return store


class TestSealing:
    def test_small_segments_roll_over(self, tmp_path, filled):
        capsule, pairs = filled
        store = SegmentedStore(str(tmp_path), segment_bytes=700)
        fill_store(store, capsule, pairs)
        segments = store.segments(capsule.name)
        assert len(segments) > 3
        assert all(seg.sealed for seg in segments[:-1])
        assert not segments[-1].sealed  # active tail
        # Sealed spans partition the seqno range in order.
        sealed = [seg for seg in segments[:-1] if seg.records]
        for prev, cur in zip(sealed, sealed[1:]):
            assert prev.last < cur.first
        store.close()

    def test_single_big_segment_stays_active(self, tmp_path, filled):
        capsule, pairs = filled
        store = SegmentedStore(str(tmp_path))  # default 1 MiB
        fill_store(store, capsule, pairs)
        segments = store.segments(capsule.name)
        assert len(segments) == 1 and not segments[0].sealed
        assert segments[0].records == len(pairs)  # record frames only
        store.close()

    def test_reopen_preserves_entries_and_logs_nothing(
        self, tmp_path, filled
    ):
        capsule, pairs = filled
        store = SegmentedStore(str(tmp_path), segment_bytes=700)
        fill_store(store, capsule, pairs)
        store.close()
        reopened = SegmentedStore(str(tmp_path), segment_bytes=700)
        assert reopened.recovery_log == []  # clean shutdown: no repairs
        seqnos = [
            wire["seqno"]
            for tag, wire in reopened.load_entries(capsule.name)
            if tag == "r"
        ]
        assert seqnos == list(range(1, 31))
        reopened.close()

    def test_out_of_order_arrivals_replay_in_write_order(
        self, tmp_path, capsule_factory, writer_key
    ):
        capsule = capsule_factory()
        writer = CapsuleWriter(capsule.metadata, writer_key)
        pairs = [writer.append(b"ooo-%d" % i) for i in range(8)]
        order = (0, 4, 1, 6, 2, 7, 3, 5)  # replication-style arrivals
        store = SegmentedStore(str(tmp_path), segment_bytes=500)
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        for index in order:
            store.append_entries(capsule.name, [("r", pairs[index][0].to_wire())])
        assert any(seg.sealed for seg in store.segments(capsule.name))
        store.close()
        reopened = SegmentedStore(str(tmp_path), segment_bytes=500)
        seqnos = [
            wire["seqno"]
            for tag, wire in reopened.load_entries(capsule.name)
            if tag == "r"
        ]
        assert seqnos == [pairs[index][0].seqno for index in order]
        reopened.close()


class TestSyncIndex:
    def test_sealed_leaves_match_capsule(self, tmp_path, filled):
        capsule, pairs = filled
        store = SegmentedStore(str(tmp_path), segment_bytes=700)
        # 29 runs: the 30th would seal the tail it should leave open.
        fill_store(store, capsule, pairs[:-1])
        leaves = store.sync_leaves(capsule.name)
        assert leaves, "sealed segments must persist their leaves"
        for seqno, leaf in leaves.items():
            assert leaf == capsule.sync_leaf(seqno)
        # Seqnos still in the active tail are deliberately excluded —
        # a seeded cache must never mask tail divergence.
        tail = store.segments(capsule.name)[-1]
        assert tail.records > 0
        assert tail.last not in leaves
        store.close()

    def test_seed_sync_leaves_cross_checks(self, tmp_path, filled):
        capsule, pairs = filled
        store = SegmentedStore(str(tmp_path), segment_bytes=700)
        fill_store(store, capsule, pairs)
        leaves = store.sync_leaves(capsule.name)
        seeded, mismatched = capsule.seed_sync_leaves(leaves)
        assert seeded == len(leaves) and mismatched == 0
        # A corrupted leaf is rejected, not cached.
        bad = dict(leaves)
        victim = next(iter(bad))
        bad[victim] = b"\x00" * len(bad[victim])
        seeded, mismatched = capsule.seed_sync_leaves({victim: bad[victim]})
        assert seeded == 0 and mismatched == 1
        store.close()

    def test_seqno_split_across_segments_merges_its_leaf(
        self, tmp_path, filled
    ):
        """A second record at a seqno that arrives after the first was
        sealed lands in another segment; the seqno still gets one leaf
        holding both digests, sorted, as ``DataCapsule.sync_leaf``."""
        capsule, pairs = filled
        store = SegmentedStore(str(tmp_path), segment_bytes=700)
        fill_store(store, capsule, pairs)
        first = pairs[2][0].to_wire()
        branch = dict(first, payload=b"a second record at seqno 3")
        store.append_entries(
            capsule.name,
            [("r", branch)] + [("h", hb.to_wire()) for _, hb in pairs[:8]],
        )
        holding = [
            seg for seg in store.segments(capsule.name)
            if seg.sealed and seg.first <= 3 <= seg.last
        ]
        assert len(holding) == 2
        digests = [
            record_wire_digest(capsule.name.raw, wire)
            for wire in (first, branch)
        ]
        leaves = store.sync_leaves(capsule.name)
        assert leaves[3] == b"".join(sorted(digests))
        store.close()

    def test_older_idx_layout_seeds_the_same_leaves(self, tmp_path, filled):
        """An ``.idx`` written with the point-read index the engine once
        kept (packed ``sparse`` / ``extras`` seqno→offset pairs beside
        the leaves) opens and seeds exactly the same leaves."""
        capsule, pairs = filled
        root = str(tmp_path)
        store = SegmentedStore(root, segment_bytes=700)
        fill_store(store, capsule, pairs)
        expected = store.sync_leaves(capsule.name)
        store.close()
        capsule_dir = os.path.join(root, capsule.name.hex())
        rewritten = 0
        for fname in sorted(os.listdir(capsule_dir)):
            if not fname.endswith(".idx"):
                continue
            path = os.path.join(capsule_dir, fname)
            with open(path, "rb") as fh:
                idx = encoding.decode(fh.read())
            assert set(idx) == {
                "segment", "records", "first", "last", "bytes", "leaves"
            }
            # one packed (seqno, offset) pair each, as that layout held
            idx["sparse"] = struct.pack(">QQ", idx["first"], 8)
            idx["extras"] = struct.pack(">QQ", idx["last"], idx["bytes"] // 2)
            with open(path, "wb") as fh:
                fh.write(encoding.encode(idx))
            rewritten += 1
        assert rewritten > 1
        reopened = SegmentedStore(root, segment_bytes=700)
        leaves = reopened.sync_leaves(capsule.name)
        assert leaves == expected
        seeded, mismatched = capsule.seed_sync_leaves(leaves)
        assert seeded == len(leaves) and mismatched == 0
        reopened.close()


class TestTiering:
    def test_cold_segments_move_to_object_store(self, tmp_path, filled):
        capsule, pairs = filled
        tier = MemoryObjectTier()
        store = SegmentedStore(
            str(tmp_path), segment_bytes=700, hot_segments=1, tier=tier
        )
        fill_store(store, capsule, pairs)
        tiered = [
            seg for seg in store.segments(capsule.name) if seg.tier == "object"
        ]
        assert len(tiered) >= 3
        assert tier.puts == len(tiered)
        # Local .seg files for tiered segments are gone; the sidecar
        # indexes stay local (sync_leaves never needs a download).
        capsule_dir = os.path.join(str(tmp_path), capsule.name.hex())
        for seg in tiered:
            assert not os.path.exists(
                os.path.join(capsule_dir, "seg-%08d.seg" % seg.id)
            )
            assert os.path.exists(
                os.path.join(capsule_dir, "seg-%08d.idx" % seg.id)
            )
        store.close()

    def test_read_through_and_cache(self, tmp_path, filled):
        """A replay GETs each tiered segment once; nothing is cached
        across replays, and the sync leaves need no GET at all."""
        capsule, pairs = filled
        tier = MemoryObjectTier()
        store = SegmentedStore(
            str(tmp_path), segment_bytes=700, hot_segments=1, tier=tier
        )
        fill_store(store, capsule, pairs)
        tiered = sum(
            1 for seg in store.segments(capsule.name) if seg.tier == "object"
        )
        assert tiered > 0
        for replay in (1, 2):
            seqnos = [
                wire["seqno"]
                for tag, wire in store.load_entries(capsule.name)
                if tag == "r"
            ]
            assert seqnos == list(range(1, 31))
            assert tier.gets == replay * tiered
        assert store.sync_leaves(capsule.name)
        assert tier.gets == 2 * tiered
        store.close()

    def test_delete_capsule_clears_tier_objects(self, tmp_path, filled):
        """A retire's ``drop_entries`` (the id predates it) removes the
        tier objects and segments; the manifest stays."""
        capsule, pairs = filled
        tier = MemoryObjectTier()
        store = SegmentedStore(
            str(tmp_path), segment_bytes=700, hot_segments=1, tier=tier
        )
        fill_store(store, capsule, pairs)
        assert tier.keys()
        store.drop_entries(capsule.name)
        assert tier.keys() == []
        assert os.listdir(os.path.join(str(tmp_path), capsule.name.hex())) == [
            "MANIFEST"
        ]
        assert store.list_capsules() == [capsule.name]
        assert list(store.load_entries(capsule.name)) == []
        store.close()


class TestCompaction:
    def test_checkpoint_compaction_merges_and_prunes(self, tmp_path, filled):
        capsule, pairs = filled
        store = SegmentedStore(str(tmp_path), segment_bytes=700)
        fill_store(store, capsule, pairs)
        before = store.segments(capsule.name)
        store.note_checkpoint(capsule.name, 24)
        merged = store.compact(capsule.name)
        assert merged >= 2
        after = store.segments(capsule.name)
        assert len(after) == len(before) - merged + 1
        # Every record survives; superseded heartbeats below the
        # checkpoint are pruned down to the newest per merged span.
        seqnos = [
            wire["seqno"]
            for tag, wire in store.load_entries(capsule.name)
            if tag == "r"
        ]
        assert seqnos == list(range(1, 31))
        heartbeat_count = sum(
            1 for tag, _ in store.load_entries(capsule.name) if tag == "h"
        )
        assert heartbeat_count < len(pairs)
        # The merged segment's leaves still seed the capsule cleanly.
        leaves = store.sync_leaves(capsule.name)
        assert capsule.seed_sync_leaves(leaves) == (len(leaves), 0)
        event = next(
            e for e in store.recovery_log if e["event"] == "compacted"
        )
        assert len(event["merged"]) == merged
        store.close()

    def test_compacted_index_bytes_are_pinned(self, tmp_path, filled):
        """The merged segment's ``.idx`` comes from the index builder
        the append path and tail replay use; its bytes are pinned, two
        out-of-order arrivals included."""
        capsule, pairs = filled
        pairs = list(pairs)
        pairs[2], pairs[3] = pairs[3], pairs[2]
        pairs[10], pairs[12] = pairs[12], pairs[10]
        store = SegmentedStore(str(tmp_path), segment_bytes=700)
        fill_store(store, capsule, pairs)
        store.note_checkpoint(capsule.name, 24)
        assert store.compact(capsule.name) == 11
        event = next(
            e for e in store.recovery_log if e["event"] == "compacted"
        )
        idx_path = store._idx_path(
            store._require(capsule.name).dir, event["into"]
        )
        with open(idx_path, "rb") as fh:
            blob = fh.read()
        assert len(blob) == 1076
        assert hashlib.sha256(blob).hexdigest() == (
            "fae56f8cdcaeaf1894e0674e3a2c12a3"
            "2911bc612c4734fed64b3f4479568171"
        )
        store.close()

    def test_compaction_keeps_the_heartbeat_before_a_hole(self, tmp_path, filled):
        """A replica that missed record 11 holds record 10 under its own
        heartbeat alone; compaction must keep that heartbeat, or replay
        refuses a record this replica acked."""
        capsule, pairs = filled
        store = SegmentedStore(str(tmp_path), segment_bytes=700)
        fill_store(store, capsule, pairs[:10] + pairs[11:])
        store.note_checkpoint(capsule.name, 24)
        assert store.compact(capsule.name) >= 2
        replica = DataCapsule(capsule.metadata)
        new, refused = replay(replica, store.load_entries(capsule.name))
        assert (new, refused) == (29, 0)
        assert replica.get(10) == pairs[9][0]
        store.close()

    def test_compact_without_checkpoint_is_noop(self, tmp_path, filled):
        capsule, pairs = filled
        store = SegmentedStore(str(tmp_path), segment_bytes=700)
        fill_store(store, capsule, pairs)
        assert store.compact(capsule.name) == 0
        store.close()


class TestRecoveryEvents:
    def test_debris_segment_removed_on_open(self, tmp_path, filled):
        capsule, pairs = filled
        root = str(tmp_path)
        store = SegmentedStore(root, segment_bytes=700)
        fill_store(store, capsule, pairs)
        store.close()
        # A seal crashed after creating the next segment file but before
        # the manifest committed: the orphan file is debris.
        capsule_dir = os.path.join(root, capsule.name.hex())
        with open(os.path.join(capsule_dir, "seg-00000099.seg"), "wb") as fh:
            fh.write(b"garbage")
        reopened = SegmentedStore(root, segment_bytes=700)
        list(reopened.load_entries(capsule.name))
        events = [e["event"] for e in reopened.recovery_log]
        assert "debris_removed" in events
        assert not os.path.exists(
            os.path.join(capsule_dir, "seg-00000099.seg")
        )
        reopened.close()

    def test_torn_tail_truncated_exactly_once(self, tmp_path, filled):
        capsule, pairs = filled
        root = str(tmp_path)
        store = SegmentedStore(root, segment_bytes=700)
        fill_store(store, capsule, pairs)
        store.close()
        capsule_dir = os.path.join(root, capsule.name.hex())
        active = max(
            f for f in os.listdir(capsule_dir) if f.endswith(".seg")
        )
        path = os.path.join(capsule_dir, active)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        reopened = SegmentedStore(root, segment_bytes=700)
        list(reopened.load_entries(capsule.name))
        truncations = [
            e for e in reopened.recovery_log if e["event"] == "tail_truncated"
        ]
        assert len(truncations) == 1
        reopened.close()
        again = SegmentedStore(root, segment_bytes=700)
        list(again.load_entries(capsule.name))
        assert not any(
            e["event"] == "tail_truncated" for e in again.recovery_log
        )
        again.close()

    def test_empty_active_tail_recovers_magic_header(self, tmp_path, filled):
        """A crash between creating the active file and writing its magic
        leaves a 0-byte tail.  Recovery must rewrite the header so that
        appends acked after recovery survive the *next* reopen instead of
        being wholesale-truncated by the magic check (regression)."""
        capsule, pairs = filled
        root = str(tmp_path)
        store = SegmentedStore(root, segment_bytes=700)
        # 29 runs: the 30th would seal the tail this case empties.
        fill_store(store, capsule, pairs[:-1])
        store.close()
        capsule_dir = os.path.join(root, capsule.name.hex())
        active = max(
            f for f in os.listdir(capsule_dir) if f.endswith(".seg")
        )
        with open(os.path.join(capsule_dir, active), "wb"):
            pass  # truncate the tail to zero bytes
        store = SegmentedStore(root, segment_bytes=700)
        have = {
            wire["seqno"]
            for tag, wire in store.load_entries(capsule.name)
            if tag == "r"
        }
        lost = [pair for pair in pairs if pair[0].seqno not in have]
        assert lost  # the fabricated crash emptied a non-empty tail
        entries = []
        for record, heartbeat in lost:
            entries.append(("r", record.to_wire()))
            entries.append(("h", heartbeat.to_wire()))
        store.append_entries(capsule.name, entries)
        store.close()
        reopened = SegmentedStore(root, segment_bytes=700)
        assert not any(
            e["event"] == "tail_truncated" for e in reopened.recovery_log
        )
        seqnos = sorted(
            wire["seqno"]
            for tag, wire in reopened.load_entries(capsule.name)
            if tag == "r"
        )
        assert seqnos == list(range(1, 31))
        reopened.close()


class TestActiveTailDedup:
    def test_duplicate_record_suppressed(self, tmp_path, filled):
        """Unlike FileStore, the segmented tail consults its in-memory
        leaf index: a re-delivered record never lands twice on disk."""
        capsule, pairs = filled
        store = SegmentedStore(str(tmp_path))
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        wire = pairs[0][0].to_wire()
        store.append_entries(capsule.name, [("r", wire)])
        store.append_entries(capsule.name, [("r", wire)])
        frames = [tag for tag, _ in store.load_entries(capsule.name)]
        assert frames == ["r"]
        store.close()
