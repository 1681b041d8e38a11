"""``append_single``: the fixed per-op cost of one durable append."""

from __future__ import annotations

import itertools

from perf import gen
from perf.fleet import SocketFleet
from perf.workloads.base import SocketWorkload, drive_closed_loop

PAYLOAD_BYTES = 256
PRELOAD_RECORDS = 2048


class AppendSingle(SocketWorkload):
    name = "append_single"
    why = (
        "fixed per-op cost of one 256 B append acked by both replicas: "
        "mint+sign, encodes, 10 PDU deliveries, persist, replicate, "
        "response sign+verify (ROADMAP item 1: where do the 7 ms go)"
    )
    clock = "wall"
    ops_per_round = 200
    smoke_ops_per_round = 12
    probe_every = 8
    user_bytes_per_op = PAYLOAD_BYTES
    expected_spans = (
        "crypto.sign", "crypto.verify", "crypto.hash", "encoding.encode",
        "encoding.decode", "capsule.writer", "client.write",
        "runtime.transport.send", "runtime.transport.recv", "runtime.dispatch",
        "routing.router", "server.dcserver", "server.dcserver.remote",
        "server.secure.sign", "server.secure.verify", "server.segmented.append",
    )
    min_coverage = 0.85

    def setup(self, lap) -> None:
        self.fleet = SocketFleet(self.root, self.seed, lap)
        client = self.fleet.client("perf_writer")
        self.metadata, key = self.fleet.place_capsule(client, self.name)
        self.writer = client.open_writer(self.metadata, key, acks="all")
        preload = 64 if self.smoke else PRELOAD_RECORDS
        self.fleet.preload(self.writer, self.seed, preload, PAYLOAD_BYTES)
        self.acked = set(range(1, preload + 1))
        self.user_bytes = preload * PAYLOAD_BYTES

    def round_inputs(self):
        for first in itertools.count(0, self.round_ops):
            yield [
                gen.payload(self.seed, "append", first + i, PAYLOAD_BYTES)
                for i in range(self.round_ops)
            ]

    def run_round(self, meter):
        def issue(payload):
            expected = self.writer.last_seqno + 1
            receipt = yield from self.writer.append(payload, acks="all")
            self.user_bytes += len(payload)
            if receipt.acks != 2 or receipt.record.seqno != expected:
                return False
            self.acked.add(expected)
            return True

        return drive_closed_loop(
            self.fleet, meter, next(self._rounds), issue, self.probe_every
        )


    def verify(self) -> int:
        return self.fleet.missing_after_recovery(self.metadata.name, self.acked)
