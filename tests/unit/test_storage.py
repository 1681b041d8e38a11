"""Storage backends: persistence, recovery, torn writes."""

import pytest

from repro.baselines.s3sim import MemoryObjectTier
from repro.capsule import CapsuleWriter, DataCapsule, build_record
from repro.errors import StorageError
from repro.server.segmented import SimulatedCrash
from repro.server.storage import MemoryStore, SegmentedStore, replay


@pytest.fixture(params=["memory", "segmented"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    # Tiny segments: even the 5-record contract fixtures cross a seal
    # boundary, so the contract is checked across sealed + active tail.
    return SegmentedStore(str(tmp_path / "segments"), segment_bytes=600)


@pytest.fixture()
def capsule_with_data(capsule_factory, writer_key):
    capsule = capsule_factory()
    writer = CapsuleWriter(capsule.metadata, writer_key)
    pairs = [writer.append(b"payload-%d" % i) for i in range(5)]
    for record, heartbeat in pairs:
        capsule.admit([record], heartbeat)
    return capsule, pairs


class TestBackendContract:
    """(The ``metadata`` / ``delete`` case names are stable test ids: they
    predate the hosting record and ``drop_entries``.)"""

    def test_metadata_roundtrip(self, store, capsule_factory):
        capsule = capsule_factory()
        hosting = {"metadata": capsule.metadata.to_wire(), "placement": None}
        store.store_hosting(capsule.name, hosting)
        assert store.load_hosting(capsule.name) == hosting

    def test_metadata_idempotent(self, store, capsule_factory):
        """The last hosting record wins, and it is not a log entry."""
        capsule = capsule_factory()
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        store.store_hosting(capsule.name, {"placement": {"version": 2}})
        assert store.load_hosting(capsule.name) == {"placement": {"version": 2}}
        assert list(store.load_entries(capsule.name)) == []

    def test_missing_metadata(self, store, capsule_factory):
        assert store.load_hosting(capsule_factory().name) is None

    def test_records_persist_in_order(self, store, capsule_with_data):
        capsule, pairs = capsule_with_data
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        for record, heartbeat in pairs:
            store.append_entries(
                capsule.name,
                [("r", record.to_wire()), ("h", heartbeat.to_wire())],
            )
        tags = [tag for tag, _ in store.load_entries(capsule.name)]
        assert tags == ["r", "h"] * 5

    def test_append_to_unhosted_rejected(self, store, capsule_with_data):
        capsule, pairs = capsule_with_data
        with pytest.raises(StorageError):
            store.append_entries(capsule.name, [("r", pairs[0][0].to_wire())])

    def test_list_capsules(self, store, capsule_factory):
        a, b = capsule_factory(), capsule_factory()
        store.store_hosting(a.name, {"metadata": a.metadata.to_wire()})
        store.store_hosting(b.name, {"metadata": b.metadata.to_wire()})
        assert set(store.list_capsules()) == {a.name, b.name}

    def test_delete_capsule(self, store, capsule_with_data):
        """A retire drops every record and heartbeat; the hosting record
        (which says the capsule is retired) stays."""
        capsule, pairs = capsule_with_data
        hosting = {"metadata": capsule.metadata.to_wire()}
        store.store_hosting(capsule.name, hosting)
        store.append_entries(capsule.name, [("r", pairs[0][0].to_wire())])
        store.drop_entries(capsule.name)
        assert store.list_capsules() == [capsule.name]
        assert store.load_hosting(capsule.name) == hosting
        assert list(store.load_entries(capsule.name)) == []

    def test_delete_missing_is_noop(self, store, capsule_factory):
        store.drop_entries(capsule_factory().name)

    def test_full_capsule_rebuild(self, store, capsule_with_data):
        """Records reloaded from storage revalidate into an identical
        capsule (recovery path)."""
        capsule, pairs = capsule_with_data
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        for record, heartbeat in pairs:
            store.append_entries(
                capsule.name,
                [("r", record.to_wire()), ("h", heartbeat.to_wire())],
            )
        rebuilt = DataCapsule(capsule.metadata, verify_metadata=False)
        assert replay(rebuilt, store.load_entries(capsule.name)) == (5, 0)
        assert rebuilt.state_summary() == capsule.state_summary()
        assert rebuilt.verify_history() == 5

    def test_append_entries_batch_equals_singles(self, store, capsule_with_data):
        """One call with the whole run stores what one call per entry
        stores."""
        capsule, pairs = capsule_with_data
        entries = []
        for record, heartbeat in pairs:
            entries.append(("r", record.to_wire()))
            entries.append(("h", heartbeat.to_wire()))
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        for entry in entries:
            assert store.append_entries(capsule.name, [entry]) == 1
        singles = list(store.load_entries(capsule.name))
        store.drop_entries(capsule.name)
        assert store.append_entries(capsule.name, entries) == 10
        assert list(store.load_entries(capsule.name)) == singles
        assert [tag for tag, _ in singles] == ["r", "h"] * 5

    def test_append_entries_rejects_metadata_tag(self, store, capsule_with_data):
        capsule, _ = capsule_with_data
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        with pytest.raises(StorageError):
            store.append_entries(
                capsule.name, [("m", capsule.metadata.to_wire())]
            )

    def test_append_entries_rejects_unknown_tag_writing_nothing(
        self, store, capsule_with_data
    ):
        """Every backend checks the whole run's tags before it writes:
        a bad tag anywhere leaves the log as it was."""
        capsule, pairs = capsule_with_data
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        with pytest.raises(StorageError, match="'x'"):
            store.append_entries(
                capsule.name,
                [("r", pairs[0][0].to_wire()), ("x", pairs[0][1].to_wire())],
            )
        assert list(store.load_entries(capsule.name)) == []

    def test_point_read_agrees_across_backends(
        self, tmp_path, capsule_factory, writer_key
    ):
        """``read_records`` gives the same wires from both backends, the
        branches at a seqno in write order, across seals, tiering,
        compaction, a reopen (sealed segments located afresh) and
        ``drop_entries``."""
        capsule = capsule_factory("checkpoint:4")
        writer = CapsuleWriter(capsule.metadata, writer_key)
        pairs = [writer.append(b"point-%02d" % i * 16) for i in range(24)]
        digests = {record.seqno: record.digest for record, _ in pairs}
        branch = build_record(capsule, 5, b"branch-5", digests)
        # the later half first, then the branch ahead of the record it forks
        entries = [("r", record.to_wire()) for record, _ in pairs[12:]]
        entries += [("r", branch.to_wire())]
        entries += [("r", record.to_wire()) for record, _ in pairs[:12]]
        entries += [("h", pairs[-1][1].to_wire())]
        expected: dict = {}
        for tag, wire in entries:
            if tag == "r":
                expected.setdefault(wire["seqno"], []).append(wire)
        assert [w["payload"] for w in expected[5]] == [b"branch-5", pairs[4][0].payload]
        tier = MemoryObjectTier()

        def segmented():
            return SegmentedStore(
                str(tmp_path / "seg"), segment_bytes=600, hot_segments=2, tier=tier
            )

        memory, disk = MemoryStore(), segmented()
        for store in (memory, disk):
            store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
            for entry in entries:
                store.append_entries(capsule.name, [entry])
        seqnos = range(1, 27)  # 25 and 26 were never written

        def agreed() -> dict:
            wires = memory.read_records(capsule.name, seqnos)
            assert disk.read_records(capsule.name, seqnos) == wires
            return wires

        assert agreed() == expected
        tiers = {seg.tier for seg in disk.segments(capsule.name) if seg.sealed}
        assert tiers == {"local", "object"}
        disk.note_checkpoint(capsule.name, 24)
        assert disk.compact(capsule.name) >= 2
        assert agreed() == expected
        disk.close()
        disk = segmented()
        assert agreed() == expected
        for store in (memory, disk):
            store.drop_entries(capsule.name)
        assert agreed() == {}

    def test_point_read_never_reaches_past_a_torn_tail(
        self, tmp_path, capsule_with_data
    ):
        """A frame torn by a crash mid-append is never read back: the
        dead store serves nothing, the reopened one what was intact."""
        capsule, pairs = capsule_with_data
        armed = []

        def crash(site):
            if armed and site == "append.torn":
                raise SimulatedCrash(site)

        root = str(tmp_path / "torn")
        store = SegmentedStore(root, crash_hook=crash)
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        for record, _ in pairs[:4]:
            store.append_entries(capsule.name, [("r", record.to_wire())])
        armed.append(True)
        with pytest.raises(SimulatedCrash):
            store.append_entries(capsule.name, [("r", pairs[4][0].to_wire())])
        with pytest.raises(StorageError):
            store.read_records(capsule.name, [5])
        reopened = SegmentedStore(root)
        assert reopened.read_records(capsule.name, range(1, 6)) == {
            record.seqno: [record.to_wire()] for record, _ in pairs[:4]
        }


class TestIterationOrderConformance:
    """The load_entries contract every backend must honor: frames come
    back in *write* order (not seqno order — replication absorbs branch
    records out of order), and the iterator is a snapshot at call time."""

    def test_write_order_preserved_under_out_of_order_appends(
        self, store, capsule_factory, writer_key
    ):
        capsule = capsule_factory()
        writer = CapsuleWriter(capsule.metadata, writer_key)
        pairs = [writer.append(b"branchy-%d" % i) for i in range(6)]
        # Arrival order a replica might see under interleaved branch
        # sync: seqnos land 1, 4, 2, 6, 3, 5.
        arrival = [0, 3, 1, 5, 2, 4]
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        for index in arrival:
            store.append_entries(capsule.name, [("r", pairs[index][0].to_wire())])
        seqnos = [
            wire["seqno"]
            for tag, wire in store.load_entries(capsule.name)
            if tag == "r"
        ]
        assert seqnos == [index + 1 for index in arrival]

    def test_load_entries_is_a_snapshot(self, store, capsule_with_data):
        capsule, pairs = capsule_with_data
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        for record, _ in pairs[:3]:
            store.append_entries(capsule.name, [("r", record.to_wire())])
        snapshot = store.load_entries(capsule.name)
        for record, _ in pairs[3:]:
            store.append_entries(capsule.name, [("r", record.to_wire())])
        assert sum(1 for tag, _ in snapshot if tag == "r") == 3
        assert sum(
            1 for tag, _ in store.load_entries(capsule.name) if tag == "r"
        ) == 5


class TestFileStoreSpecifics:
    """What only the store on real files — ``SegmentedStore`` — can
    show.  (Class and case names are the suite's stable test ids; they
    predate the flat-file engine's deletion.)"""

    def test_persistence_across_instances(self, tmp_path, capsule_with_data):
        capsule, pairs = capsule_with_data
        root = str(tmp_path / "persist")
        store = SegmentedStore(root)
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        store.append_entries(capsule.name, [("r", pairs[0][0].to_wire())])
        reopened = SegmentedStore(root)
        assert reopened.list_capsules() == [capsule.name]
        tags = [tag for tag, _ in reopened.load_entries(capsule.name)]
        assert tags == ["r"]

    def test_empty_directory(self, tmp_path):
        assert SegmentedStore(str(tmp_path / "empty")).list_capsules() == []

    def test_flat_file_root_refuses_to_open(self, tmp_path):
        """A root written by the deleted one-file-per-capsule engine
        must not boot as an empty store that advertises nothing."""
        (tmp_path / ("ab" * 32 + ".dclog")).write_bytes(b"m\x00\x00\x00\x00")
        with pytest.raises(StorageError, match=str(tmp_path)):
            SegmentedStore(str(tmp_path))

    def test_buffered_appends_visible_to_reader(self, tmp_path, capsule_with_data):
        # Under "drain", frames sit in the tail's user-space buffer;
        # load_entries must still observe every acknowledged append.
        capsule, pairs = capsule_with_data
        store = SegmentedStore(str(tmp_path / "buffered"), fsync_policy="drain")
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        for record, _ in pairs:
            store.append_entries(capsule.name, [("r", record.to_wire())])
        tags = [tag for tag, _ in store.load_entries(capsule.name)]
        assert tags == ["r"] * 5
        store.close()

    def test_handle_pool_bounded(self, tmp_path, capsule_factory):
        store = SegmentedStore(str(tmp_path / "pool"))
        capsules = [capsule_factory() for _ in range(store._MAX_HANDLES + 5)]
        record_wire = {"seqno": 1, "payload": b"p", "pointers": []}
        for capsule in capsules:
            store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
            store.append_entries(capsule.name, [("r", record_wire)])
        assert len(store._handles) == store._MAX_HANDLES
        # Evicted-handle capsules are still readable and appendable.
        first = capsules[0].name
        assert first not in store._handles
        store.append_entries(first, [("h", {"seqno": 1})])
        assert [tag for tag, _ in store.load_entries(first)] == ["r", "h"]
        store.close()

    def test_delete_releases_handle_and_recreate(self, tmp_path, capsule_with_data):
        capsule, pairs = capsule_with_data
        root = str(tmp_path / "recreate")
        store = SegmentedStore(root)
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        store.append_entries(capsule.name, [("r", pairs[0][0].to_wire())])
        store.drop_entries(capsule.name)
        assert capsule.name not in store._handles
        assert list(store.load_entries(capsule.name)) == []
        # A re-hosted capsule takes appends into a fresh chain, which a
        # reopen keeps.
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        store.append_entries(capsule.name, [("r", pairs[1][0].to_wire())])
        store.close()
        reopened = SegmentedStore(root)
        seqnos = [wire["seqno"] for _, wire in reopened.load_entries(capsule.name)]
        assert seqnos == [2]
        reopened.close()

    def test_close_flushes_and_survives_reopen(self, tmp_path, capsule_with_data):
        capsule, pairs = capsule_with_data
        root = str(tmp_path / "flushclose")
        store = SegmentedStore(root, fsync_policy="drain")
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        for record, _ in pairs:
            store.append_entries(capsule.name, [("r", record.to_wire())])
        store.close()
        reopened = SegmentedStore(root)
        tags = [tag for tag, _ in reopened.load_entries(capsule.name)]
        assert tags == ["r"] * 5

    @pytest.fixture()
    def fsyncs(self, monkeypatch):
        """Every ``os.fsync`` issued while the test runs."""
        import os

        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd)
        )
        return calls

    def test_fsync_false_never_syncs_until_drain(
        self, tmp_path, capsule_with_data, fsyncs
    ):
        """Under ``"drain"`` the append path must issue zero fsyncs;
        the drain lifecycle (``sync()``) is the only thing that pushes
        bytes to the medium."""
        capsule, pairs = capsule_with_data
        store = SegmentedStore(str(tmp_path / "drain"), fsync_policy="drain")
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        del fsyncs[:]
        for record, heartbeat in pairs:
            store.append_entries(
                capsule.name,
                [("r", record.to_wire()), ("h", heartbeat.to_wire())],
            )
        assert fsyncs == []
        store.sync()
        assert len(fsyncs) == 1  # one open tail, one sync
        store.close()

    def test_fsync_true_syncs_every_append(
        self, tmp_path, capsule_with_data, fsyncs
    ):
        """Under ``"always"``: one fsync per append call."""
        capsule, pairs = capsule_with_data
        store = SegmentedStore(str(tmp_path / "sync"), fsync_policy="always")
        store.store_hosting(capsule.name, {"metadata": capsule.metadata.to_wire()})
        before = len(fsyncs)
        store.append_entries(capsule.name, [("r", pairs[0][0].to_wire())])
        assert len(fsyncs) == before + 1
        # Batched appends amortize: one fsync for the whole run.
        before = len(fsyncs)
        store.append_entries(
            capsule.name,
            [("r", record.to_wire()) for record, _ in pairs[1:]],
        )
        assert len(fsyncs) == before + 1
        store.close()
