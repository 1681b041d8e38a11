"""Lossy multimedia stream CAAPI (§IV-A, §V, §VI-B).

"A DataCapsule representing a streaming video can tolerate a few missing
frames" — the ``stream:W`` pointer strategy gives every record pointers
to its *W* predecessors, so a reader that lost up to ``W-1`` consecutive
frames in transmission still links the next frame into verified history
("allow for records missing in transmission while maintaining integrity
properties").

The subscriber surfaces gaps explicitly (frame numbers of lost records)
instead of stalling, which is the correct semantics for live media; the
same capsule range-read later (time-shift) recovers every frame that any
replica persisted.
"""

from __future__ import annotations

from typing import Callable, Generator, Sequence

from repro import encoding
from repro.caapi.base import CapsuleApp
from repro.capsule.heartbeat import Heartbeat
from repro.capsule.records import Record
from repro.client.client import GdpClient
from repro.client.owner import OwnerConsole
from repro.crypto.keys import SigningKey
from repro.errors import CapsuleError, GdpError
from repro.naming.metadata import Metadata
from repro.naming.names import GdpName

__all__ = ["StreamPublisher", "StreamSubscriber", "Frame"]


class Frame:
    """One media frame: index, a keyframe flag, and payload bytes."""

    __slots__ = ("index", "keyframe", "data", "seqno")

    def __init__(self, index: int, keyframe: bool, data: bytes, seqno: int = 0):
        self.index = index
        self.keyframe = keyframe
        self.data = data
        self.seqno = seqno

    def encode(self) -> bytes:
        """Canonical byte encoding."""
        return encoding.encode(
            {"i": self.index, "k": self.keyframe, "d": self.data}
        )

    @classmethod
    def from_record(cls, record: Record) -> "Frame":
        """Decode from a capsule record."""
        entry = encoding.decode(record.payload)
        return cls(entry["i"], entry["k"], entry["d"], record.seqno)

    def __repr__(self) -> str:
        kind = "K" if self.keyframe else "P"
        return f"Frame(#{self.index}{kind}, {len(self.data)}B)"


class StreamPublisher(CapsuleApp):
    """The single writer of a stream capsule."""

    CAAPI_KIND = "stream"
    CAAPI_LABEL = "caapi.stream"
    WRITER_SEED = b"streamwriter:"

    def __init__(
        self,
        client: GdpClient,
        console: OwnerConsole,
        server_metadatas: Sequence[Metadata],
        *,
        writer_key: SigningKey | None = None,
        window: int = 4,
        gop: int = 12,
        scopes: Sequence[str] = (),
        acks: str = "any",
    ):
        super().__init__(
            client,
            console,
            server_metadatas,
            writer_key=writer_key,
            scopes=scopes,
            acks=acks,
        )
        self.window = window
        self.gop = gop  # keyframe every `gop` frames
        self._frame_index = 0

    def _pointer_strategy(self) -> str:
        return f"stream:{self.window}"

    def _design_extra(self) -> dict:
        return {"gop": self.gop}

    def publish(self, data: bytes) -> Generator:
        """Append the next frame; returns the :class:`Frame`."""
        if self._writer is None:
            raise CapsuleError("stream not created yet")
        frame = Frame(
            self._frame_index,
            self._frame_index % self.gop == 0,
            data,
        )
        self._frame_index += 1
        receipt = yield from self._writer.append(frame.encode())
        frame.seqno = receipt.seqno
        return frame


class StreamSubscriber:
    """A loss-tolerant live consumer of a stream capsule."""

    def __init__(self, client: GdpClient, name: GdpName):
        self.client = client
        self.name = name
        self.delivered: list[Frame] = []
        self.gaps: list[int] = []
        self._next_expected = 1
        self._on_frame: Callable[[Frame], None] | None = None
        self._on_gap: Callable[[list[int]], None] | None = None

    def play(
        self,
        on_frame: Callable[[Frame], None],
        *,
        on_gap: Callable[[list[int]], None] | None = None,
    ) -> Generator:
        """Subscribe and deliver verified frames; gaps are reported via
        *on_gap* (and collected in :attr:`gaps`) rather than blocking
        playback."""
        self._on_frame = on_frame
        self._on_gap = on_gap
        start = yield from self.client.subscribe(self.name, self._on_record)
        self._next_expected = start
        return start

    def _on_record(self, record: Record, heartbeat: Heartbeat) -> None:
        if record.seqno > self._next_expected:
            missing = list(range(self._next_expected, record.seqno))
            self.gaps.extend(missing)
            if self._on_gap is not None:
                self._on_gap(missing)
        if record.seqno >= self._next_expected:
            self._next_expected = record.seqno + 1
        frame = Frame.from_record(record)
        self.delivered.append(frame)
        if self._on_frame is not None:
            self._on_frame(frame)

    def replay(self, first: int, last: int) -> Generator:
        """Time-shifted playback: fetch frames ``first..last`` from
        storage, skipping records that are permanently lost (holes) —
        each surviving record is fetched with its own position proof so
        integrity never depends on the missing ones."""
        frames: list[Frame] = []
        missing: list[int] = []
        for seqno in range(first, last + 1):
            try:
                result = yield from self.client.read(self.name, seqno)
            except GdpError:
                missing.append(seqno)
                continue
            frames.append(Frame.from_record(result.record))
        return frames, missing
