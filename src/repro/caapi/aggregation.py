"""Multi-writer support (b): the aggregation service (§V-A).

"... or (b) by creating an aggregation service that subscribes to
multiple single-writer DataCapsules and combines them based on some
application-level logic."

:class:`AggregationService` subscribes to N input capsules (each with
its own honest single writer) and appends combined records to one output
capsule it writes.  The combine function is application logic; the
default annotates each input record with its source capsule, giving a
fan-in merge whose provenance chain is: input writer signature →
aggregator signature.
"""

from __future__ import annotations

from typing import Callable, Generator, Sequence

from repro import encoding
from repro.caapi.base import create_backed_capsule
from repro.capsule.heartbeat import Heartbeat
from repro.capsule.records import Record
from repro.client.client import ClientWriter, GdpClient
from repro.client.owner import OwnerConsole
from repro.crypto.keys import SigningKey
from repro.errors import CapsuleError
from repro.naming.metadata import Metadata
from repro.naming.names import GdpName
from repro.runtime.context import Future
from repro.runtime.network import Network

__all__ = ["AggregationService"]

CombineFn = Callable[[GdpName, Record], bytes]


def _default_combine(source: GdpName, record: Record) -> bytes:
    return encoding.encode(
        {
            "source": source.raw,
            "source_seqno": record.seqno,
            "data": record.payload,
        }
    )


class AggregationService(GdpClient):
    """Fan-in: many single-writer capsules -> one combined capsule."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        *,
        key: SigningKey | None = None,
        combine: CombineFn | None = None,
    ):
        super().__init__(network, node_id, key=key)
        self.combine = combine or _default_combine
        self._writer: ClientWriter | None = None
        self._append_chain: Future | None = None
        self._c_aggregated = self.metrics.counter("aggregate.records")

    def create_output(
        self,
        console: OwnerConsole,
        server_metadatas: Sequence[Metadata],
        *,
        scopes: Sequence[str] = (),
        acks: str = "any",
    ) -> Generator:
        """Create the output capsule (this service is its writer)."""
        metadata, writer = yield from create_backed_capsule(
            self,
            console,
            server_metadatas,
            writer_key=self.key,
            pointer_strategy="chain",
            label="caapi.aggregate",
            extra={"caapi": "aggregate"},
            scopes=scopes,
            acks=acks,
        )
        self._writer = writer
        return metadata.name

    def follow(self, source: GdpName) -> Generator:
        """Subscribe to one input capsule; every verified new record is
        combined and appended to the output."""
        if self._writer is None:
            raise CapsuleError("create_output first")

        def on_record(record: Record, heartbeat: Heartbeat) -> None:
            self._enqueue(source, record)

        result = yield from self.subscribe(source, on_record)
        return result

    def _enqueue(self, source: GdpName, record: Record) -> None:
        """Serialize output appends (the service is a single writer —
        appends must not interleave)."""
        previous = self._append_chain
        slot = self.ctx.future()
        self._append_chain = slot

        def run(_: Future | None = None) -> None:
            payload = self.combine(source, record)
            process = self.ctx.spawn(
                self._writer.append(payload), name="aggregate.append"
            )

            def done(fut: Future) -> None:
                try:
                    fut.result()
                    self._c_aggregated.inc()
                except Exception:  # noqa: BLE001 — aggregation is lossy-ok
                    pass
                slot.resolve(None)

            process.completion.add_callback(done)

        if previous is None or previous.done:
            run()
        else:
            previous.add_callback(run)
