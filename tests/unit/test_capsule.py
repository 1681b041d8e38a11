"""The DataCapsule ADS: admission validation, reads, holes, CRDT join."""

import pytest

from repro.capsule import CapsuleWriter, DataCapsule, Heartbeat, build_record
from repro.capsule.records import Record
from repro.crypto.hashing import HashPointer, sha256
from repro.errors import (
    HoleError,
    IntegrityError,
    RecordNotFoundError,
)
from repro.naming import make_capsule_metadata, make_server_metadata


class TestConstruction:
    def test_requires_capsule_metadata(self, owner_key, other_key):
        md = make_server_metadata(owner_key, other_key.public)
        with pytest.raises(IntegrityError):
            DataCapsule(md)

    def test_verifies_metadata_by_default(self, owner_key, writer_key):
        from repro.naming import Metadata

        md = make_capsule_metadata(owner_key, writer_key.public)
        forged = Metadata(md.kind, md.properties, bytes(64))
        with pytest.raises(Exception):
            DataCapsule(forged)

    def test_empty_state(self, capsule_factory):
        capsule = capsule_factory()
        assert len(capsule) == 0
        assert capsule.last_seqno == 0
        assert capsule.latest_heartbeat is None
        assert capsule.holes() == []
        assert capsule.tips() == []
        assert not capsule.is_branched()


def signed(writer_key, record: Record) -> Heartbeat:
    """A genuine heartbeat over *record* — the checks under test run
    before admission looks at it."""
    return Heartbeat.create(
        writer_key, record.capsule, record.seqno, record.digest, record.seqno
    )


class TestInsertValidation:
    """Every way in runs these checks; each case goes through ``admit``."""

    def test_wrong_capsule_rejected(self, capsule_factory, writer_key):
        a = capsule_factory()
        b = capsule_factory()
        writer = CapsuleWriter(a.metadata, writer_key)
        record, heartbeat = writer.append(b"x")
        with pytest.raises(IntegrityError):
            b.admit([record], heartbeat)

    def test_strategy_shape_enforced(self, capsule_factory, writer_key):
        capsule = capsule_factory("chain")
        bogus = Record(
            capsule.name, 2,
            b"x",
            [HashPointer(1, b"\x01" * 32), HashPointer(0, b"\x02" * 32)],
        )
        with pytest.raises(IntegrityError):
            capsule.admit([bogus], signed(writer_key, bogus))

    def test_bad_anchor_rejected(self, capsule_factory, writer_key):
        capsule = capsule_factory("chain")
        bogus = Record(capsule.name, 1, b"x", [HashPointer(0, b"\x09" * 32)])
        with pytest.raises(IntegrityError):
            capsule.admit([bogus], signed(writer_key, bogus))

    def test_insert_idempotent(self, capsule_factory, writer_key):
        capsule = capsule_factory()
        writer = CapsuleWriter(capsule.metadata, writer_key)
        record, hb = writer.append(b"x")
        capsule.admit([record], hb)
        assert capsule.admit_fetched([record], [hb], {}) == ([], [])
        assert capsule.admit([record], hb) == ([], False)
        assert len(capsule) == 1

    def test_pointer_digest_mismatch_rejected(self, capsule_factory, writer_key):
        capsule = capsule_factory()
        writer = CapsuleWriter(capsule.metadata, writer_key)
        capsule.admit(*writer.append_batch([b"one"]))
        r1 = capsule.get(1)
        # Record 3 pointing at seqno 2 but with a digest that belongs to
        # a *known* record under another seqno.
        evil = Record(capsule.name, 3, b"x", [HashPointer(2, r1.digest)])
        with pytest.raises(IntegrityError):
            capsule.admit([evil], signed(writer_key, evil))

    def test_heartbeat_wrong_writer_rejected(
        self, capsule_factory, writer_key, other_key
    ):
        from repro.capsule import Heartbeat
        from repro.errors import SignatureError

        capsule = capsule_factory()
        writer = CapsuleWriter(capsule.metadata, writer_key)
        record, _ = writer.append(b"x")
        forged = Heartbeat.create(
            other_key, capsule.name, 1, record.digest, 1
        )
        with pytest.raises(SignatureError):
            capsule.add_heartbeat(forged)

    def test_heartbeat_record_mismatch_rejected(self, capsule_factory, writer_key):
        from repro.capsule import Heartbeat

        capsule = capsule_factory()
        writer = CapsuleWriter(capsule.metadata, writer_key)
        r1, _ = writer.append(b"x")
        hb = Heartbeat.create(writer_key, capsule.name, 2, b"\x07" * 32, 2)
        with pytest.raises(IntegrityError):
            capsule.admit([r1], hb)


class TestReads:
    def test_get(self, filled_capsule):
        """A replica holds the header: no payload, its hash and size."""
        header = filled_capsule.get(3)
        assert header.seqno == 3
        assert header.payload is None
        assert header.payload_hash == sha256(b"record-2")
        assert header.size == len(b"record-2")

    def test_get_missing(self, filled_capsule):
        with pytest.raises(RecordNotFoundError):
            filled_capsule.get(99)

    def test_read_range(self, filled_capsule):
        records = filled_capsule.read_range(4, 8)
        assert [r.seqno for r in records] == [4, 5, 6, 7, 8]

    def test_read_range_bad_bounds(self, filled_capsule):
        with pytest.raises(RecordNotFoundError):
            filled_capsule.read_range(0, 3)
        with pytest.raises(RecordNotFoundError):
            filled_capsule.read_range(5, 4)

    def test_read_range_with_hole(self, capsule_factory, writer_key):
        source = capsule_factory()
        writer = CapsuleWriter(source.metadata, writer_key)
        pairs = [writer.append(b"%d" % i) for i in range(5)]
        sparse = DataCapsule(source.metadata, verify_metadata=False)
        for record, heartbeat in pairs:
            if record.seqno != 3:
                sparse.admit([record], heartbeat)
        with pytest.raises(HoleError, match=r"1 missing, the first at 3$"):
            sparse.read_range(1, 5)
        assert sparse.holes() == [3]

    def test_read_range_past_the_tip_is_refused_without_a_scan(
        self, filled_capsule
    ):
        """A range ending past the tip is refused up front, naming the
        tip — no walk over the seqnos it asks for."""
        tip = filled_capsule.last_seqno
        with pytest.raises(RecordNotFoundError, match=f"past the tip {tip}$"):
            filled_capsule.read_range(1, 10**15)

    def test_get_by_digest(self, filled_capsule):
        record = filled_capsule.get(5)
        assert filled_capsule.get_by_digest(record.digest) is record
        with pytest.raises(RecordNotFoundError):
            filled_capsule.get_by_digest(b"\x00" * 32)

    def test_tips_single_chain(self, filled_capsule):
        tips = filled_capsule.tips()
        assert len(tips) == 1
        assert tips[0].seqno == 12

    def test_records_sorted(self, filled_capsule):
        seqnos = [r.seqno for r in filled_capsule.records()]
        assert seqnos == sorted(seqnos)


class TestHistoryVerification:
    @pytest.mark.parametrize("strategy", ["chain", "skiplist", "checkpoint:4"])
    def test_full_history_verifies(self, capsule_factory, writer_key, strategy):
        capsule = capsule_factory(strategy)
        writer = CapsuleWriter(capsule.metadata, writer_key)
        for i in range(20):
            capsule.admit(*writer.append_batch([b"r%d" % i]))
        assert capsule.verify_history() == 20

    def test_hole_detected(self, capsule_factory, writer_key):
        source = capsule_factory("chain")
        writer = CapsuleWriter(source.metadata, writer_key)
        records = []
        for i in range(5):
            record, hb = writer.append(b"%d" % i)
            records.append((record, hb))
        sparse = DataCapsule(source.metadata, verify_metadata=False)
        for record, hb in records:
            if record.seqno != 3:
                sparse.admit([record], hb)
        with pytest.raises(HoleError):
            sparse.verify_history()

    def test_stream_hole_tolerated(self, capsule_factory, writer_key):
        source = capsule_factory("stream:4")
        writer = CapsuleWriter(source.metadata, writer_key)
        records = []
        for i in range(8):
            record, hb = writer.append(b"%d" % i)
            records.append((record, hb))
        sparse = DataCapsule(source.metadata, verify_metadata=False)
        for record, hb in records:
            if record.seqno not in (3, 4):
                sparse.admit([record], hb)
        # Two consecutive losses < window 4: history still verifies.
        assert sparse.verify_history() > 0

    def test_empty_history(self, capsule_factory):
        assert capsule_factory().verify_history() == 0


class TestCrdtJoin:
    def test_merge_absorbs_missing(self, capsule_factory, writer_key):
        capsule = capsule_factory()
        writer = CapsuleWriter(capsule.metadata, writer_key)
        for i in range(8):
            capsule.admit(*writer.append_batch([b"%d" % i]))
        empty = DataCapsule(capsule.metadata, verify_metadata=False)
        assert empty.merge_from(capsule) == 8
        assert empty.last_seqno == 8
        assert empty.latest_heartbeat.seqno == 8

    def test_merge_idempotent(self, capsule_factory, writer_key):
        capsule = capsule_factory()
        capsule.admit(*CapsuleWriter(capsule.metadata, writer_key).append_batch([b"x"]))
        replica = capsule.clone()
        assert replica.merge_from(capsule) == 0

    def test_merge_commutative(self, capsule_factory, writer_key):
        capsule = capsule_factory()
        writer = CapsuleWriter(capsule.metadata, writer_key)
        records = [writer.append(b"%d" % i) for i in range(6)]
        a = DataCapsule(capsule.metadata, verify_metadata=False)
        b = DataCapsule(capsule.metadata, verify_metadata=False)
        for record, hb in records[:4]:
            a.admit([record], hb)
        for record, hb in records[2:]:
            b.admit([record], hb)
        ab = a.clone()
        ab.merge_from(b)
        ba = b.clone()
        ba.merge_from(a)
        assert ab.state_summary() == ba.state_summary()

    def test_unattested_record_is_not_joined(self, capsule_factory, writer_key):
        """The join is the union of *attested* record sets: a record
        planted in a replica past every check, with no heartbeat or
        stored successor over it, is not absorbed by a merge or a
        clone."""
        capsule = capsule_factory()
        writer = CapsuleWriter(capsule.metadata, writer_key)
        for i in range(3):
            capsule.admit(*writer.append_batch([b"%d" % i]))
        planted = build_record(capsule, 4, b"planted", {3: capsule.get(3).digest})
        capsule._store(planted)
        empty = DataCapsule(capsule.metadata, verify_metadata=False)
        assert empty.merge_from(capsule) == 3
        assert planted.digest not in empty
        assert planted.digest not in capsule.clone()
        assert capsule.clone().verify_history() == 3

    def test_merge_rejects_other_capsule(self, capsule_factory):
        with pytest.raises(IntegrityError):
            capsule_factory().merge_from(capsule_factory())

    def test_state_summary_and_missing_from(self, capsule_factory, writer_key):
        capsule = capsule_factory()
        writer = CapsuleWriter(capsule.metadata, writer_key)
        for i in range(4):
            capsule.admit(*writer.append_batch([b"%d" % i]))
        empty = DataCapsule(capsule.metadata, verify_metadata=False)
        assert empty.state_summary() == {"last_seqno": 0, "digests": {}}
        missing = [
            digest
            for digests in capsule.state_summary()["digests"].values()
            for digest in digests
        ]
        assert len(missing) == 4


class TestBuildRecord:
    def test_build_requires_digests(self, capsule_factory):
        capsule = capsule_factory("chain")
        with pytest.raises(HoleError):
            build_record(capsule, 5, b"x", {})

    def test_build_matches_writer(self, capsule_factory, writer_key):
        capsule = capsule_factory("chain")
        writer = CapsuleWriter(capsule.metadata, writer_key)
        r1, _ = writer.append(b"one")
        manual = build_record(
            DataCapsule(capsule.metadata, verify_metadata=False),
            2,
            b"two",
            {1: r1.digest},
        )
        r2, _ = writer.append(b"two")
        assert manual.digest == r2.digest
