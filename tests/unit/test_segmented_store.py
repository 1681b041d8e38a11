"""SegmentedStore engine specifics: sealing, tiering, checkpoint
compaction, recovery events, and a capsule directory that holds only
its frames and its manifest.  (Cross-backend contract coverage lives in
``test_storage.py``; crash-point sweeps in ``tests/torture/``.)"""

import hashlib
import os

import pytest

from repro.baselines.s3sim import MemoryObjectTier
from repro.capsule import CapsuleWriter, DataCapsule
from repro.server.segmented import SegmentedStore
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


def assert_only_frames_and_manifest(capsule_dir):
    """A capsule directory holds its ``seg-*.seg`` files and its
    ``MANIFEST``, nothing else."""
    for fname in os.listdir(capsule_dir):
        assert fname == "MANIFEST" or (
            fname.startswith("seg-") and fname.endswith(".seg")
        ), fname


def flip_byte(path, payload: bytes) -> None:
    """Flip one bit inside *payload*'s bytes in the file at *path*."""
    with open(path, "r+b") as fh:
        blob = fh.read()
        at = blob.index(payload) + len(payload) // 2
        fh.seek(at)
        fh.write(bytes([blob[at] ^ 1]))


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
        # Local .seg files for tiered segments are gone, and a capsule
        # directory holds only its local segments and its manifest.
        capsule_dir = os.path.join(str(tmp_path), capsule.name.hex())
        for seg in tiered:
            assert not os.path.exists(
                os.path.join(capsule_dir, "seg-%08d.seg" % seg.id)
            )
        assert_only_frames_and_manifest(capsule_dir)
        store.close()

    def test_read_through_and_cache(self, tmp_path, filled):
        """A replay GETs each tiered segment once; nothing is cached
        across replays."""
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
        # The replay of the merged log gives back the replica it was
        # written from, so its sync leaves are the replica's.
        replica = DataCapsule(capsule.metadata)
        assert replay(replica, store.load_entries(capsule.name)) == (30, 0)
        assert replica.range_root(1, 30) == capsule.range_root(1, 30)
        event = next(
            e for e in store.recovery_log if e["event"] == "compacted"
        )
        assert len(event["merged"]) == merged
        store.close()

    def test_compacted_index_bytes_are_pinned(self, tmp_path, filled):
        """Compaction output is pinned: the merged ``.seg`` (the kept
        frames in write order, which the manifest indexes by span) has
        a fixed size and hash, two out-of-order arrivals included."""
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
        seg_path = store._seg_path(
            store._require(capsule.name).dir, event["into"]
        )
        with open(seg_path, "rb") as fh:
            blob = fh.read()
        assert len(blob) == 3798
        assert hashlib.sha256(blob).hexdigest() == (
            "c3ce0a1381e4afb9f943d9225f942532"
            "f76b8ae930ca80aa0598087fca30aeab"
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

    def test_directory_holds_only_frames_and_manifest(self, tmp_path, filled):
        """Seals, a compaction, then tiering of the merged segment leave
        nothing in the capsule directory beside ``seg-*.seg`` files and
        the ``MANIFEST``."""
        capsule, pairs = filled
        root = str(tmp_path)
        capsule_dir = os.path.join(root, capsule.name.hex())
        store = SegmentedStore(root, segment_bytes=700)
        fill_store(store, capsule, pairs[:20])
        store.note_checkpoint(capsule.name, 16)
        assert store.compact(capsule.name) >= 2
        assert_only_frames_and_manifest(capsule_dir)
        store.close()
        tier = MemoryObjectTier()
        store = SegmentedStore(root, segment_bytes=700, hot_segments=1, tier=tier)
        entries = []
        for record, heartbeat in pairs[20:]:
            entries += [("r", record.to_wire()), ("h", heartbeat.to_wire())]
        store.append_entries(capsule.name, entries)
        tiered = [
            seg for seg in store.segments(capsule.name) if seg.tier == "object"
        ]
        assert tiered and tier.puts == len(tiered)
        assert_only_frames_and_manifest(capsule_dir)
        store.close()

    def test_compaction_never_launders_rot(self, tmp_path, filled):
        """A sealed frame that fails its CRC is never rewritten under a
        fresh one: compaction checks every frame, leaves the run that
        holds it unmerged and logs it as a replay does, so the next open
        still counts the rot instead of refusing a forged-looking frame."""
        capsule, pairs = filled
        root = str(tmp_path)
        store = SegmentedStore(root, segment_bytes=1)  # one frame a segment
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        (r1, _), (r2, _), (r3, h3) = pairs[:3]
        store.append_entries(capsule.name, [
            ("r", r1.to_wire()), ("r", r2.to_wire()),
            ("r", r3.to_wire()), ("h", h3.to_wire()),
        ])
        store.close()
        flip_byte(os.path.join(root, capsule.name.hex(), "seg-00000002.seg"), r2.payload)

        def corrupt(log):
            return [e for e in log if e["event"] == "corrupt_frame_skipped"]

        store = SegmentedStore(root, segment_bytes=1)
        store.note_checkpoint(capsule.name, 3)
        assert store.compact(capsule.name) == 0
        assert [e["segment"] for e in corrupt(store.recovery_log)] == [2]
        assert store.compact(capsule.name) == 0  # the rot is not walked again
        assert len(corrupt(store.recovery_log)) == 1
        store.close()
        reopened = SegmentedStore(root, segment_bytes=1)
        replica = DataCapsule(capsule.metadata)
        # record 3 comes back under its heartbeat; record 1 waits for the
        # pointer of the rotted record 2 (anti-entropy refetches both)
        assert replay(replica, reopened.load_entries(capsule.name)) == (1, 1)
        assert len(corrupt(reopened.recovery_log)) >= 1
        assert replica.seqnos() == [3]
        reopened.close()

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
