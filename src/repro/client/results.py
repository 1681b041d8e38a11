"""Uniform client result envelopes: :class:`ReadResult` and
:class:`AppendReceipt`.

Every ``GdpClient`` / ``ClientWriter`` verb returns one of the two
envelopes here, each carrying the same cross-cutting context — the
verified proof, which server answered, and the observed round-trip
latency — so batched and single-shot paths present identical semantics
to callers.  The envelopes are plain records: they do not delegate to
the record they carry and are not sequences (see
``docs/CLIENT_API.md``).  Nothing in an envelope is unverified: every
reply behind one was taken through ``GdpClient.accept``, i.e. the one
verifier, :func:`repro.server.secure.open_response`.
"""

from __future__ import annotations

from typing import Any

__all__ = ["ReadResult", "AppendReceipt"]


class ReadResult:
    """What a verified read produced.

    Attributes:
        records: every verified record returned (one for point reads).
        proof: the range proof the last piece verified against (one
            record long for a point read).
        server: the :class:`~repro.naming.names.GdpName` of the replica
            whose verified reply answered.
        rtt: observed request round-trip time in simulated seconds.
    """

    __slots__ = ("records", "proof", "server", "rtt")

    def __init__(self, records, *, proof=None, server=None, rtt=0.0):
        self.records = list(records)
        self.proof = proof
        self.server = server
        self.rtt = rtt

    @property
    def record(self):
        """The (single or last) record — the point-read result."""
        if not self.records:
            return None
        return self.records[-1]

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, ReadResult):
            return self.records == other.records
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"ReadResult(records={len(self.records)}, "
            f"server={self.server.human() if self.server else None}, "
            f"rtt={self.rtt:.4f})"
        )


class AppendReceipt:
    """What an acknowledged append (or append stream) produced.

    Attributes:
        records: every record covered by this receipt, in seqno order.
        acks: replica acknowledgments collected — for a multi-batch
            stream, the *minimum* across batches (the weakest durability
            any record in the stream actually got).
        server: the replica that acknowledged (the last one, for
            streams).
        rtt: simulated seconds from first send to last acknowledgment.
        batches: how many multi-record PDUs carried the stream (1 for a
            single append).
    """

    __slots__ = ("records", "acks", "server", "rtt", "batches")

    def __init__(self, records, *, acks=1, server=None, rtt=0.0, batches=1):
        self.records = list(records)
        self.acks = acks
        self.server = server
        self.rtt = rtt
        self.batches = batches

    @property
    def record(self):
        """The (single or last) appended record."""
        if not self.records:
            return None
        return self.records[-1]

    @property
    def seqno(self) -> int:
        """The highest sequence number this receipt covers (0 if none)."""
        if not self.records:
            return 0
        return self.records[-1].seqno

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, AppendReceipt):
            return (
                self.records == other.records and self.acks == other.acks
            )
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"AppendReceipt(records={len(self.records)}, "
            f"seqno={self.seqno}, acks={self.acks}, "
            f"batches={self.batches}, rtt={self.rtt:.4f})"
        )
