"""``read_verified``: proof-verified point reads beside no writes."""

from __future__ import annotations

from perf import gen
from perf.fleet import SocketFleet
from perf.workloads.base import SocketWorkload, drive_closed_loop

PAYLOAD_BYTES = 256
CAPSULE_RECORDS = 16384


class ReadVerified(SocketWorkload):
    name = "read_verified"
    why = (
        "verified point reads over a 16,384-record skiplist capsule by a "
        "second client: proof build, response signing, proof check; no "
        "storage write and no replication, so those changes must not move it"
    )
    clock = "wall"
    ops_per_round = 300
    smoke_ops_per_round = 12
    probe_every = 12
    user_bytes_per_op = PAYLOAD_BYTES
    expected_spans = (
        "crypto.sign", "crypto.verify", "crypto.hash", "encoding.encode",
        "encoding.decode", "capsule.proofs.build", "capsule.proofs.verify",
        "client.read", "runtime.transport.send", "runtime.transport.recv",
        "runtime.dispatch", "routing.router", "server.dcserver",
        "server.secure.sign", "server.secure.verify",
    )
    #: building the capsule alone takes seconds of steady work
    setup_repeats = 1

    @property
    def records(self) -> int:
        """Records in the capsule the reads sample."""
        return 256 if self.smoke else CAPSULE_RECORDS

    def setup(self, lap) -> None:
        self.fleet = SocketFleet(self.root, self.seed, lap)
        writer_client = self.fleet.client("perf_writer")
        self.metadata, key = self.fleet.place_capsule(writer_client, self.name)
        writer = writer_client.open_writer(self.metadata, key, acks="all")
        self.fleet.preload(writer, self.seed, self.records, PAYLOAD_BYTES)
        self.user_bytes = self.records * PAYLOAD_BYTES
        self.reader = self.fleet.client("perf_reader")

    def round_inputs(self):
        positions = gen.rng(self.seed, "read-positions")
        while True:
            yield [
                positions.randrange(1, self.records + 1)
                for _ in range(self.round_ops)
            ]

    def run_round(self, meter):
        def issue(seqno):
            result = yield from self.reader.read(self.metadata.name, seqno)
            record = result.record
            return record.seqno == seqno and record.payload == gen.payload(
                self.seed, "preload", seqno - 1, PAYLOAD_BYTES
            )

        return drive_closed_loop(
            self.fleet, meter, next(self._rounds), issue, self.probe_every
        )
