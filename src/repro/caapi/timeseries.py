"""Time-series CAAPI — "time-series data representing ambient
temperature" is the paper's running example of a DataCapsule (§IV-A),
and the Berkeley deployment's first real workload ("time-series
environmental sensors", §VIII).

One record per sample, ``{"t": <ms timestamp>, "v": <value>}``.  Since
the single writer appends in time order, record seqno is monotone in
timestamp, so time-window queries binary-search the capsule by seqno
using verified point reads, then fetch the window with one range proof.
Subscriptions give live tailing; the same capsule replayed later gives
the paper's *time-shift* property.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro import encoding
from repro.caapi.base import CapsuleApp
from repro.capsule.heartbeat import Heartbeat
from repro.capsule.records import Record
from repro.errors import CapsuleError

__all__ = ["TimeSeriesLog", "Sample"]


class Sample:
    """One (timestamp, value) measurement."""

    __slots__ = ("timestamp", "value", "seqno")

    def __init__(self, timestamp: float, value: float, seqno: int = 0):
        self.timestamp = timestamp
        self.value = value
        self.seqno = seqno

    @classmethod
    def from_record(cls, record: Record) -> "Sample":
        """Decode from a capsule record."""
        entry = encoding.decode(record.payload)
        return cls(entry["t"] / 1000.0, entry["v"] / 1000.0, record.seqno)

    def __repr__(self) -> str:
        return f"Sample(t={self.timestamp}, v={self.value}, #{self.seqno})"


class TimeSeriesLog(CapsuleApp):
    """An append-only measurement log over one DataCapsule.

    Skip-list pointers: point lookups inside long histories are the
    common read."""

    CAAPI_KIND = "timeseries"
    CAAPI_LABEL = "caapi.timeseries"
    WRITER_SEED = b"tswriter:"

    def _pointer_strategy(self) -> str:
        return "skiplist"

    # -- writes ---------------------------------------------------------------

    def record(self, timestamp: float, value: float) -> Generator:
        """Append one sample (timestamp seconds, value float; both kept
        at millisecond/milli-unit integer precision on the wire)."""
        if self._writer is None:
            raise CapsuleError("log is read-only (mounted) or not created")
        payload = encoding.encode(
            {"t": int(round(timestamp * 1000)), "v": int(round(value * 1000))}
        )
        receipt = yield from self._writer.append(payload)
        return receipt.seqno

    # -- reads ----------------------------------------------------------------

    def _sample_at(self, seqno: int) -> Generator:
        result = yield from self.client.read(self.name, seqno)
        return Sample.from_record(result.record)

    def last_sample(self) -> Generator:
        """The newest sample, or None."""
        result = yield from self.client.read_latest(self.name)
        if result is None:
            return None
        return Sample.from_record(result.record)

    def window(self, t_start: float, t_end: float) -> Generator:
        """All samples with ``t_start <= timestamp <= t_end``, found by
        binary search over verified point reads then one range read."""
        if t_end < t_start:
            raise CapsuleError("empty window (t_end < t_start)")
        tip = yield from self.client.read_latest(self.name)
        if tip is None:
            return []
        last = tip.record.seqno

        def bisect_left(target: float) -> Generator:
            lo, hi = 1, last + 1
            while lo < hi:
                mid = (lo + hi) // 2
                sample = yield from self._sample_at(mid)
                if sample.timestamp < target:
                    lo = mid + 1
                else:
                    hi = mid
            return lo

        first = yield from bisect_left(t_start)
        after = yield from bisect_left(t_end + 1e-9)
        if first >= after:
            return []
        result = yield from self.client.read_range(
            self.name, first, after - 1
        )
        return [Sample.from_record(r) for r in result.records]

    def aggregate(self, t_start: float, t_end: float) -> Generator:
        """``(count, min, max, mean)`` over a time window."""
        samples = yield from self.window(t_start, t_end)
        if not samples:
            return (0, None, None, None)
        values = [s.value for s in samples]
        return (
            len(values),
            min(values),
            max(values),
            sum(values) / len(values),
        )

    # -- live tail ---------------------------------------------------------------

    def tail(self, callback: Callable[[Sample], None]) -> Generator:
        """Subscribe; *callback* fires per verified new sample."""

        def on_record(record: Record, heartbeat: Heartbeat) -> None:
            callback(Sample.from_record(record))

        result = yield from self.client.subscribe(self.name, on_record)
        return result
