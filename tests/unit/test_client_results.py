"""The uniform client result envelopes (plain records: no delegation to
the carried record, no sequence protocol)."""

import warnings
from types import SimpleNamespace

import pytest

from repro.client import AppendReceipt, ReadResult


def _record(seqno, payload=b"x"):
    return SimpleNamespace(
        seqno=seqno, payload=payload, digest=b"d%d" % seqno
    )


class TestReadResult:
    def test_record_is_the_last_record(self):
        records = [_record(1), _record(2)]
        result = ReadResult(records)
        assert result.record is records[-1]
        assert result.records == records

    def test_empty_result(self):
        assert ReadResult([]).record is None

    def test_envelope_fields_do_not_warn(self):
        result = ReadResult(
            [_record(3)], proof="proof", server="srv", rtt=0.25
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert result.proof == "proof"
            assert result.server == "srv"
            assert result.rtt == 0.25
            assert result.record.seqno == 3

    def test_unknown_attribute_raises(self):
        result = ReadResult([_record(7, b"payload")])
        with pytest.raises(AttributeError):
            result.nonexistent
        with pytest.raises(AttributeError):
            result.payload  # no delegation to the carried record
        with pytest.raises(AttributeError):
            result.seqno
        with pytest.raises(AttributeError):
            ReadResult([]).payload

    def test_not_a_sequence(self):
        result = ReadResult([_record(1), _record(2)])
        with pytest.raises(TypeError):
            len(result)
        with pytest.raises(TypeError):
            list(result)
        with pytest.raises(TypeError):
            result[0]

    def test_list_comparison_is_false(self):
        records = [_record(1)]
        assert (ReadResult(records) == records) is False

    def test_envelope_comparison_does_not_warn(self):
        records = [_record(1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ReadResult(records) == ReadResult(records)
            assert ReadResult(records) != ReadResult([_record(2)])


class TestAppendReceipt:
    def test_envelope_fields_do_not_warn(self):
        receipt = AppendReceipt(
            [_record(1), _record(2)],
            acks=2, server="srv", rtt=0.5, batches=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert receipt.record.seqno == 2
            assert receipt.seqno == 2
            assert receipt.acks == 2
            assert receipt.batches == 1
            assert receipt.server == "srv"

    def test_empty_receipt(self):
        receipt = AppendReceipt([], acks=0, batches=0)
        assert receipt.record is None
        assert receipt.seqno == 0

    def test_not_a_sequence(self):
        receipt = AppendReceipt([_record(4)], acks=2)
        with pytest.raises(TypeError):
            record, acks = receipt
        with pytest.raises(TypeError):
            receipt[0]
        with pytest.raises(TypeError):
            len(receipt)
        with pytest.raises(TypeError):
            AppendReceipt([_record(4)], legacy_shape="list")

    def test_sequence_comparison_is_false(self):
        record = _record(4)
        receipt = AppendReceipt([record], acks=2)
        assert (receipt == (record, 2)) is False
        assert (receipt == [record]) is False

    def test_envelope_comparison_does_not_warn(self):
        record = _record(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert AppendReceipt([record], acks=1) == AppendReceipt(
                [record], acks=1
            )
            assert AppendReceipt([record], acks=1) != AppendReceipt(
                [record], acks=2
            )
