"""``bulk_transfer``: the paper's Fig. 8 / CapsuleFS shape."""

from __future__ import annotations

import itertools

from perf import gen
from perf.fleet import SocketFleet
from perf.workloads.base import SocketWorkload, drive_closed_loop

RECORD_BYTES = 16 * 1024
CHUNK_RECORDS = 8


class BulkTransfer(SocketWorkload):
    name = "bulk_transfer"
    why = (
        "bulk transfer (Fig. 8, CapsuleFS): write a 128 KiB chunk as one "
        "8-record batch, read an earlier one back verified; per-byte cost "
        "and a seal + tier upload every ~8 ops, signatures amortised"
    )
    clock = "wall"
    ops_per_round = 48
    smoke_ops_per_round = 4
    probe_every = 3
    user_bytes_per_op = CHUNK_RECORDS * RECORD_BYTES
    expected_spans = (
        "crypto.sign", "crypto.verify", "crypto.hash", "encoding.encode",
        "encoding.decode", "capsule.writer", "capsule.proofs.build",
        "capsule.proofs.verify", "client.write", "client.read",
        "runtime.transport.send", "runtime.transport.recv", "runtime.dispatch",
        "routing.router", "server.dcserver", "server.dcserver.remote",
        "server.secure.sign", "server.secure.verify", "server.segmented.append",
        "server.segmented.fsync", "server.segmented.tier_put",
    )

    def setup(self, lap) -> None:
        self.fleet = SocketFleet(self.root, self.seed, lap)
        client = self.fleet.client("perf_writer")
        self.metadata, key = self.fleet.place_capsule(client, self.name)
        self.client = client
        self.writer = client.open_writer(self.metadata, key, acks="all")
        self.acked: set[int] = set()

    def chunk_payloads(self, chunk: int) -> list[bytes]:
        return [
            gen.payload(self.seed, "bulk", chunk * CHUNK_RECORDS + i, RECORD_BYTES)
            for i in range(CHUNK_RECORDS)
        ]

    def round_inputs(self):
        """Per op: chunk *k* to write, and an earlier chunk *j* <= *k*
        to read back with the payloads it must return."""
        choices = gen.rng(self.seed, "bulk-readback")
        for first in itertools.count(0, self.round_ops):
            ops = []
            for k in range(first, first + self.round_ops):
                j = choices.randrange(k + 1)
                ops.append((k, self.chunk_payloads(k), j, self.chunk_payloads(j)))
            yield ops

    def run_round(self, meter):
        def issue(op):
            k, payloads, j, expected = op
            first = k * CHUNK_RECORDS + 1
            receipt = yield from self.writer.append_stream(
                payloads,
                acks="all",
                window=1,
                batch_records=CHUNK_RECORDS,
                batch_bytes=CHUNK_RECORDS * RECORD_BYTES,
            )
            self.user_bytes += CHUNK_RECORDS * RECORD_BYTES
            seqnos = [record.seqno for record in receipt.records]
            if receipt.acks != 2 or seqnos != list(range(first, first + CHUNK_RECORDS)):
                return False
            self.acked.update(seqnos)
            back = j * CHUNK_RECORDS + 1
            result = yield from self.client.read_range(
                self.metadata.name, back, back + CHUNK_RECORDS - 1
            )
            return [record.payload for record in result.records] == expected

        return drive_closed_loop(
            self.fleet, meter, next(self._rounds), issue, self.probe_every
        )


    def verify(self) -> int:
        return self.fleet.missing_after_recovery(self.metadata.name, self.acked)
