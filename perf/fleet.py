"""A two-process GDP fleet hosted on one event loop.

Exactly the wiring of ``repro.fleet.serve_process`` — per slot one
router and one DataCapsule-server joined by a ``local_pair``, routers
interconnected over loopback TCP, static routes to the remote server
name, reverse-path learning for responses — except that both slots, and
the load-generating clients, share one ``AsyncioContext`` loop in one
OS process: ``nproc`` is 2, so separate processes would measure the
scheduler.  Loopback, one event loop, no real link.

Each server is durable: a ``SegmentedStore`` (batched fsync, 1 MiB
segments) tiering sealed segments to a ``DirectoryObjectTier``.
"""

from __future__ import annotations

import asyncio
import os

from repro.baselines.s3sim import DirectoryObjectTier
from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.errors import RoutingError
from repro.naming.names import GdpName
from repro.routing.domain import RoutingDomain
from repro.routing.router import GdpRouter
from repro.runtime.context import AsyncioContext
from repro.runtime.socketnet import SocketNetwork
from repro.runtime.transport import local_pair
from repro.server.dcserver import DataCapsuleServer
from repro.server.segmented import SegmentedStore
from repro.sim import SimNetwork

from perf import gen

HOST = "127.0.0.1"
#: records per ``append_stream`` call while preloading (one lap each)
PRELOAD_SLICE = 256
FSYNC_POLICY = "batch:65536"
SEGMENT_BYTES = 1 << 20
REPLICAS = 2


def open_store(root: str, index: int) -> SegmentedStore:
    """Replica *index*'s durable store under *root* (also used to
    reopen it for the recovery oracle)."""
    tier = DirectoryObjectTier(os.path.join(root, f"tier{index}"))
    return SegmentedStore(
        os.path.join(root, f"store{index}"),
        fsync_policy=FSYNC_POLICY,
        segment_bytes=SEGMENT_BYTES,
        tier=tier,
    )


def storage_totals(stores) -> dict:
    """Bytes framed into segments, segments sealed and bytes uploaded to
    the tier, over *stores* (read before closing them)."""
    segments = [
        segment
        for store in stores
        for capsule in store.list_capsules()
        for segment in store.segments(capsule)
    ]
    return {
        "segment_bytes": sum(segment.bytes for segment in segments),
        "seals": sum(1 for segment in segments if segment.sealed),
        "tier_bytes_put": sum(store.tier.bytes_put for store in stores),
    }


class SocketFleet:
    """Two fleet slots plus any number of clients on one loop."""

    def __init__(self, root: str, seed: int, lap=lambda: None):
        self.root = root
        self.seed = seed
        #: called between set-up phases (speed probes; see harness)
        self.lap = lap
        self.ctx = AsyncioContext()
        self.routers: list[GdpRouter] = []
        self.servers: list[DataCapsuleServer] = []
        self.stores: list[SegmentedStore] = []
        self.clients: list[GdpClient] = []
        self.placements: dict = {}
        ports = []
        for index in range(REPLICAS):
            net = SocketNetwork(self.ctx, seed=seed + index)
            domain = RoutingDomain("global", clock=lambda: self.ctx.now)
            router = GdpRouter(net, f"perf_r{index}", domain)
            router.learn_source_routes = True
            store = open_store(root, index)
            server = DataCapsuleServer(net, f"perf_s{index}", storage=store)
            s_end, _ = local_pair(
                self.ctx,
                server.transport,
                router.transport,
                f"chan:{server.node_id}>{router.node_id}",
                f"chan:{router.node_id}>{server.node_id}",
            )
            server.attach_channel(s_end, router.name)
            _, port = self._await(router.transport.listen(HOST, 0))
            ports.append(port)
            self.routers.append(router)
            self.servers.append(server)
            self.stores.append(store)
        self.port = ports[0]
        r0, r1 = self.routers
        s0, s1 = self.servers

        def on_channel(channel) -> None:
            if channel.node_id == f"chan:{r1.node_id}":
                r0.add_static_route(s1.name, channel)

        r0.transport.on_channel = on_channel
        channel = self._await(r1.transport.dial(HOST, ports[0]))
        r1.add_static_route(s0.name, channel)
        self.run(self._advertise_servers())
        lap()

    def _await(self, coroutine):
        return self.ctx.loop.run_until_complete(coroutine)

    def run(self, generator):
        """Drive a generator process on the loop to completion."""
        return self.ctx.run_process(generator)

    def _advertise_servers(self):
        """(Re-)run every server's secure advertisement to completion;
        a ``host`` op starts one on its own, so wait that one out."""
        for server in self.servers:
            while True:
                try:
                    done = server.advertise(server.catalog_entries())
                except RoutingError:
                    yield 0.005
                    continue
                yield done
                break

    def client(self, node_id: str) -> GdpClient:
        """A client dialled into router 0 and advertised."""
        net = SocketNetwork(self.ctx, seed=self.seed + 100 + len(self.clients))
        client = GdpClient(net, node_id)
        channel = self._await(client.transport.dial(HOST, self.port))
        client.attach_channel(channel, GdpName(channel.remote_name_raw))
        self.run(_advertise(client))
        self.clients.append(client)
        return client

    def place_capsule(self, client: GdpClient, label: str):
        """Create a skiplist capsule replicated on both servers;
        returns ``(metadata, writer_key)`` once it is routable."""
        owner = SigningKey.from_seed(f"perf-owner/{label}".encode())
        writer_key = SigningKey.from_seed(f"perf-writer/{label}".encode())
        console = OwnerConsole(client, owner)
        metadata = console.design_capsule(
            writer_key.public, pointer_strategy="skiplist", label=label
        )
        self.placements[metadata.name] = self.run(
            console.place_capsule(
                metadata, [server.metadata for server in self.servers]
            )
        )
        self.run(self._advertise_servers())
        self.lap()
        return metadata, writer_key

    def preload(self, writer, seed: int, records: int, size: int) -> None:
        """Fill a capsule with *records* seeded payloads (stream
        ``preload``), every batch acked by both replicas, in order."""
        for first in range(0, records, PRELOAD_SLICE):
            count = min(PRELOAD_SLICE, records - first)
            receipt = self.run(
                writer.append_stream(
                    [gen.payload(seed, "preload", first + i, size) for i in range(count)],
                    acks="all",
                )
            )
            seqnos = [record.seqno for record in receipt.records]
            if receipt.acks != REPLICAS or seqnos != list(
                range(first + 1, first + count + 1)
            ):
                raise RuntimeError("preload was not acked by both replicas in order")
            self.lap()

    def close(self) -> None:
        """Graceful drain, then release every socket, file and the loop."""
        for server in self.servers:
            self.run(server.drain())
        for node in self.clients + self.servers + self.routers:
            node.transport.close()
        self.storage_totals = storage_totals(self.stores)
        for store in self.stores:
            store.close()
        self._await(asyncio.sleep(0.01))
        self.ctx.loop.close()

    def missing_after_recovery(self, capsule: GdpName, acked: set[int]) -> int:
        """The durability oracle (call after :meth:`close`): reopen each
        store under a fresh server, recover from storage, and count the
        acked seqnos a replica no longer has."""
        placement = self.placements[capsule]
        missing = 0
        for index, old in enumerate(self.servers):
            store = open_store(self.root, index)
            try:
                server = DataCapsuleServer(
                    SimNetwork(seed=0), old.node_id, storage=store
                )
                hosted = server.host_capsule(
                    placement.metadata, placement.chains[server.name]
                )
                server.recover_from_storage()
                missing += len(acked - set(hosted.capsule.seqnos()))
            finally:
                store.close()
        return missing


def _advertise(endpoint):
    yield endpoint.advertise()
