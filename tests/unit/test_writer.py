"""Writers: state management, persistence, recovery, QSW resume."""

import os

import pytest

from repro.capsule import CapsuleWriter, DataCapsule, QuasiWriter, WriterState
from repro.errors import HoleError, WriterStateError


class TestCapsuleWriter:
    def test_wrong_key_rejected(self, capsule_factory, other_key):
        with pytest.raises(WriterStateError):
            CapsuleWriter(capsule_factory().metadata, other_key)

    def test_sequential_seqnos(self, capsule_factory, writer_key):
        writer = CapsuleWriter(capsule_factory().metadata, writer_key)
        for expected in range(1, 6):
            record, _ = writer.append(b"x")
            assert record.seqno == expected

    def test_timestamps_monotone(self, capsule_factory, writer_key):
        writer = CapsuleWriter(capsule_factory().metadata, writer_key)
        stamps = [writer.append(b"x")[1].timestamp for _ in range(5)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 5

    def test_clock_injection(self, capsule_factory, writer_key):
        ticks = iter([100, 100, 250])
        writer = CapsuleWriter(
            capsule_factory().metadata, writer_key, clock=lambda: next(ticks)
        )
        t1 = writer.append(b"a")[1].timestamp
        t2 = writer.append(b"b")[1].timestamp  # stalled clock still advances
        t3 = writer.append(b"c")[1].timestamp
        assert t1 == 100 and t2 == 101 and t3 == 250

    def test_append_many(self, capsule_factory, writer_key):
        writer = CapsuleWriter(capsule_factory().metadata, writer_key)
        records, heartbeat = writer.append_batch([b"a", b"b", b"c"])
        assert [r.seqno for r in records] == [1, 2, 3]
        assert heartbeat.seqno == 3

    @pytest.mark.parametrize("strategy", ["chain", "skiplist", "checkpoint:4", "stream:3"])
    def test_state_stays_bounded(self, capsule_factory, writer_key, strategy):
        writer = CapsuleWriter(capsule_factory(strategy).metadata, writer_key)
        for i in range(100):
            writer.append(b"x")
        # Retention must keep the digest map small (not all 100).
        assert len(writer.state.digests) <= 12


class TestStatePersistence:
    def test_save_load_roundtrip(self, capsule_factory, writer_key, tmp_path):
        path = str(tmp_path / "writer.state")
        capsule = capsule_factory("skiplist")
        writer = CapsuleWriter(capsule.metadata, writer_key, state_path=path)
        for i in range(10):
            capsule.admit(*writer.append_batch([b"%d" % i]))
        # New writer process picks up where the old one stopped.
        resumed = CapsuleWriter(capsule.metadata, writer_key, state_path=path)
        assert resumed.last_seqno == 10
        record, heartbeat = resumed.append(b"after-restart")
        assert record.seqno == 11
        # The record links correctly into the original replica.
        capsule.admit([record], heartbeat)

    def test_state_wire_roundtrip(self, capsule_factory):
        capsule = capsule_factory()
        state = WriterState(capsule.name, 5, 17, {5: b"\x05" * 32})
        restored = WriterState.from_bytes(state.to_bytes())
        assert restored.last_seqno == 5
        assert restored.timestamp == 17
        assert restored.digests == {5: b"\x05" * 32}

    def test_corrupt_state_rejected(self, tmp_path):
        path = tmp_path / "bad.state"
        path.write_bytes(b"garbage")
        with pytest.raises(WriterStateError):
            WriterState.load(str(path))

    def test_missing_state_file_rejected(self):
        with pytest.raises(WriterStateError):
            WriterState.load("/nonexistent/writer.state")

    def test_state_for_wrong_capsule_rejected(
        self, capsule_factory, writer_key, tmp_path
    ):
        a, b = capsule_factory(), capsule_factory()
        path = str(tmp_path / "writer.state")
        WriterState(a.name).save(path)
        with pytest.raises(WriterStateError):
            CapsuleWriter(b.metadata, writer_key, state_path=path)

    def test_atomic_save(self, capsule_factory, tmp_path):
        path = str(tmp_path / "writer.state")
        state = WriterState(capsule_factory().name, 1, 1, {})
        state.save(path)
        assert not os.path.exists(path + ".tmp")


class TestLostState:
    def test_ssw_without_state_restarts_at_one(self, capsule_factory, writer_key):
        """The SSW failure mode: without persistent state the writer
        restarts from scratch and its first append collides (is caught
        as equivocation downstream)."""
        metadata = capsule_factory().metadata
        CapsuleWriter(metadata, writer_key).append(b"first")
        fresh = CapsuleWriter(metadata, writer_key)
        record, _ = fresh.append(b"conflicting")
        assert record.seqno == 1  # collides with the original record 1


def qsw_history(capsule, writer_key, count):
    """*capsule* holding *count* QSW records, each admitted as a replica
    admits a run."""
    writer = QuasiWriter(capsule.metadata, writer_key)
    for i in range(count):
        capsule.admit(*writer.append_batch([b"%d" % i]))
    return capsule


class TestQuasiWriter:
    def test_resume_from_tip(self, capsule_factory, writer_key):
        replica = qsw_history(capsule_factory(mode="qsw"), writer_key, 5)
        recovered = QuasiWriter(replica.metadata, writer_key)
        recovered.resume_from_tip(replica.get(5))
        record, _ = recovered.append(b"after-recovery")
        assert record.seqno == 6

    def test_resume_from_stale_tip_branches(self, capsule_factory, writer_key):
        capsule = qsw_history(capsule_factory(mode="qsw"), writer_key, 5)
        # Replica only saw 3 records; resume from its (stale) tip.
        stale = DataCapsule(capsule.metadata, verify_metadata=False)
        stale.admit(list(capsule.records())[:3], capsule.heartbeats_at(3)[0])
        recovered = QuasiWriter(stale.metadata, writer_key)
        recovered.resume_from_tip(stale.get(3), stale.records())
        stale.admit(*recovered.append_batch([b"branch"]))
        merged = capsule.clone()
        merged.merge_from(stale)
        assert merged.is_branched()

    def test_resume_rejects_foreign_tip(self, capsule_factory, writer_key):
        a = qsw_history(capsule_factory(mode="qsw"), writer_key, 1)
        recovered = QuasiWriter(capsule_factory(mode="qsw").metadata, writer_key)
        with pytest.raises(WriterStateError):
            recovered.resume_from_tip(a.get(1))

    def test_resume_harvests_checkpoint_digests(self, capsule_factory, writer_key):
        capsule = capsule_factory("checkpoint:4", mode="qsw")
        replica = qsw_history(capsule, writer_key, 10)
        recovered = QuasiWriter(replica.metadata, writer_key)
        recovered.resume_from_tip(replica.get(10), replica.records())
        # Next append (11) needs checkpoint 8's digest — harvested from
        # the verified records passed in.
        record, _ = recovered.append(b"post")
        assert record.pointer_to(8) is not None

    def test_resume_without_needed_records_fails_loudly(
        self, capsule_factory, writer_key
    ):
        capsule = capsule_factory("checkpoint:4", mode="qsw")
        replica = qsw_history(capsule, writer_key, 10)
        recovered = QuasiWriter(replica.metadata, writer_key)
        recovered.resume_from_tip(replica.get(10))
        with pytest.raises(HoleError):
            recovered.append(b"post")
