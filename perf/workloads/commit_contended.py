"""``commit_contended``: hot-key CAS through the sharded commit plane."""

from __future__ import annotations

import itertools

from repro.caapi.commit_service import (
    CommitClient,
    CommitShard,
    ShardedCommitService,
)
from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.errors import GdpError
from repro.routing.domain import RoutingDomain
from repro.routing.router import GdpRouter
from repro.server.dcserver import DataCapsuleServer
from repro.sim import SimNetwork

from perf import gen, harness
from perf.fleet import open_store, storage_totals
from perf.workloads.base import Workload

CLIENTS = 16
SHARDS = 4
HOT_KEYS = 4
CAS_ATTEMPTS = 24
#: payloads average 64 B; the seed picks each size, so the bytes on the
#: simulated links (and with them the simulated latencies) are inputs
PAYLOAD_MIN, PAYLOAD_MAX = 48, 80
#: the fixed link model
BACKBONE_LATENCY_S = 0.001
BACKBONE_BYTES_PER_S = 1_250_000.0
ACCESS_LATENCY_S = 0.0005
#: simulated seconds between speed probes (~50 ms of real compute)
PROBE_EVERY_SIM_S = 2.0


class CommitContended(Workload):
    name = "commit_contended"
    why = (
        "16 clients race compare-and-swap commits on 4 hot keys over 4 "
        "shards (SCL's contended writers): contention is a protocol "
        "property only the simulated clock shows; its compute cost is real"
    )
    topology = (
        "SimNetwork, fixed link model: inter-router 1 ms / 1.25 MB/s, "
        "access links 0.5 ms"
    )
    clock = "simulated"
    ops_per_round = CLIENTS * 24
    smoke_ops_per_round = CLIENTS * 2
    user_bytes_per_op = (PAYLOAD_MIN + PAYLOAD_MAX) // 2
    expected_spans = (
        "crypto.sign", "crypto.verify", "crypto.hash", "encoding.encode",
        "capsule.writer", "client.write", "runtime.transport.send",
        "runtime.transport.recv", "runtime.dispatch", "routing.router",
        "server.dcserver", "server.secure.sign", "server.secure.verify",
        "server.segmented.append", "caapi.commit",
    )

    def setup(self, lap) -> None:
        net = SimNetwork(seed=self.seed)
        self.sim = net.sim
        domain = RoutingDomain("global", clock=lambda: net.sim.now)
        r_clients = GdpRouter(net, "rc", domain)
        r_plane = GdpRouter(net, "rp", domain)
        net.connect(
            r_clients, r_plane,
            latency=BACKBONE_LATENCY_S, bandwidth=BACKBONE_BYTES_PER_S,
        )
        self.stores = [open_store(self.root, i) for i in range(SHARDS)]
        servers, self.shards = [], []
        for i, store in enumerate(self.stores):
            server = DataCapsuleServer(net, f"srv{i}", storage=store)
            server.attach(r_plane, latency=ACCESS_LATENCY_S)
            servers.append(server)
            shard = CommitShard(net, f"shard{i}")
            shard.attach(r_plane, latency=ACCESS_LATENCY_S)
            self.shards.append(shard)
        front = ShardedCommitService(net, "front", self.shards)
        front.attach(r_plane, latency=ACCESS_LATENCY_S)
        owner_client = GdpClient(net, "perf_owner")
        owner_client.attach(r_plane, latency=ACCESS_LATENCY_S)
        console = OwnerConsole(owner_client, SigningKey.from_seed(b"perf-commit-owner"))
        self.clients = []
        for i in range(CLIENTS):
            worker = GdpClient(net, f"w{i}")
            worker.attach(r_clients, latency=ACCESS_LATENCY_S)
            self.clients.append(
                CommitClient(
                    worker,
                    front.name,
                    coordinator_key=front.key.public,
                    rng=gen.rng(self.seed, f"backoff/{i}"),
                )
            )

        def boot():
            for endpoint in servers + self.shards + [front, owner_client]:
                yield endpoint.advertise()
            lap()
            for commit_client in self.clients:
                yield commit_client.client.advertise()
            lap()
            yield from front.create(
                console,
                [server.metadata for server in servers],
                per_shard_servers=[[server.metadata] for server in servers],
            )
            for commit_client in self.clients:
                yield from commit_client.fetch_map()

        lap()
        self.sim.run_process(boot(), "perf-commit-setup")
        lap()
        self.metrics = net.metrics
        self.seen: list[dict] = [{} for _ in range(CLIENTS)]
        self.receipts: list = []

    def round_inputs(self):
        """Per round, per client: its ``(hot key, payload)`` ops."""
        choices = [gen.rng(self.seed, f"hot/{w}") for w in range(CLIENTS)]
        per_client = self.round_ops // CLIENTS
        for first in itertools.count(0, per_client):
            yield [
                [
                    (
                        f"hot/{choices[w].randrange(HOT_KEYS)}",
                        gen.payload(
                            self.seed, f"commit/{w}", i,
                            choices[w].randrange(PAYLOAD_MIN, PAYLOAD_MAX + 1),
                        ),
                    )
                    for i in range(first, first + per_client)
                ]
                for w in range(CLIENTS)
            ]

    def counter_total(self, name: str) -> int:
        """Sum of one ``MetricsRegistry`` counter over the shards."""
        return sum(
            self.metrics.counter(shard.node_id, name).value for shard in self.shards
        )

    def run_round(self, meter):
        plans = next(self._rounds)
        sim = self.sim
        running = [True]

        def worker(index, commit_client, ops):
            seen = self.seen[index]
            for key, data in ops:
                start = sim.now
                try:
                    receipt = yield from commit_client.submit_cas(
                        key,
                        lambda expect, data=data: data,
                        expect_seqno=seen.get(key, 0),
                        attempts=CAS_ATTEMPTS,
                    )
                except GdpError:
                    meter.record(sim.now - start, False)
                    continue
                seen[key] = receipt.seqno
                self.receipts.append(receipt)
                self.user_bytes += len(data)
                meter.record(sim.now - start, True)

        def prober():
            while True:
                yield PROBE_EVERY_SIM_S
                if not running[0]:
                    return  # the round ended while this probe slept
                meter.tick()

        def drive():
            start = sim.now
            procs = [
                sim.spawn(worker(i, client, plans[i]), name=f"perf-w{i}")
                for i, client in enumerate(self.clients)
            ]
            sim.spawn(prober(), name="perf-probe")
            for proc in procs:
                yield proc.completion
            running[0] = False
            meter.sim_elapsed = sim.now - start

        meter.start()
        sim.run_process(drive(), "perf-commit-round")
        return meter.finish()

    def teardown(self) -> None:
        self.totals = storage_totals(self.stores)
        for store in self.stores:
            store.sync()
            store.close()
        self.stored_bytes = harness.tree_bytes(self.root)

    def extras(self) -> dict:
        committed = self.counter_total("commit.committed")
        return {
            **self.totals,
            "conflicts_per_commit": self.counter_total("commit.conflicts") / committed,
        }

    def verify(self) -> int:
        """No lost update, no phantom ack, linearizable CAS chains —
        judged from every shard's ``commit_log``."""
        violations = 0
        logged = {
            (shard.shard_index, entry["seqno"])
            for shard in self.shards
            for entry in shard.commit_log
        }
        if len(logged) != len(self.receipts):
            violations += abs(len(logged) - len(self.receipts))
        for receipt in self.receipts:
            if (receipt.shard, receipt.seqno) not in logged:
                violations += 1
        for shard in self.shards:
            versions: dict[str, int] = {}
            for entry in shard.commit_log:
                key = entry["key"]
                if entry["expect"] >= 0 and entry["expect"] != versions.get(key, 0):
                    violations += 1
                versions[key] = entry["seqno"]
        return violations
