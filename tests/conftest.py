"""Shared fixtures: deterministic keys, capsules, and mini-GDP networks.

Key generation and signing are real (pure-Python ECDSA), so fixtures are
cached at session scope wherever reuse is safe; tests that need isolation
build their own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro.capsule import CapsuleWriter, DataCapsule
from repro.capsule.capsule import run_wire
from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.delegation import Placement
from repro.naming import make_capsule_metadata, make_server_metadata
from repro.routing import GdpRouter, RoutingDomain
from repro.routing.pdu import T_DATA, Pdu
from repro.runtime.dispatch import dispatch_op
from repro.server import AntiEntropyDaemon, DataCapsuleServer
from repro.server.segmented import SegmentedStore
from repro.sim import GBPS, SimNetwork


@pytest.fixture(scope="session")
def owner_key() -> SigningKey:
    return SigningKey.from_seed(b"test-owner")


@pytest.fixture(scope="session")
def writer_key() -> SigningKey:
    return SigningKey.from_seed(b"test-writer")


@pytest.fixture(scope="session")
def other_key() -> SigningKey:
    return SigningKey.from_seed(b"test-other")


@pytest.fixture()
def capsule_factory(owner_key, writer_key):
    """Build a fresh, uniquely named capsule with the shared keys."""
    counter = {"n": 0}

    def build(strategy: str = "chain", mode: str = "ssw") -> DataCapsule:
        counter["n"] += 1
        metadata = make_capsule_metadata(
            owner_key,
            writer_key.public,
            pointer_strategy=strategy,
            writer_mode=mode,
            extra={"test_nonce": counter["n"]},
        )
        return DataCapsule(metadata)

    return build


@pytest.fixture()
def filled_capsule(capsule_factory, writer_key):
    """A chain capsule with 12 appended records."""
    capsule = capsule_factory("chain")
    writer = CapsuleWriter(capsule.metadata, writer_key)
    for i in range(12):
        record, heartbeat = writer.append(b"record-%d" % i)
        capsule.admit([record], heartbeat)
    return capsule


class MiniGdp:
    """A ready-to-use two-domain GDP: root + edge, two servers, two
    clients, everything advertised."""

    def __init__(self, seed: int = 11):
        self.net = SimNetwork(seed=seed)
        clock = lambda: self.net.sim.now  # noqa: E731
        self.root_domain = RoutingDomain("global", clock=clock)
        self.edge_domain = RoutingDomain("global.edge", self.root_domain)
        self.r_root = GdpRouter(self.net, "r_root", self.root_domain)
        self.r_edge = GdpRouter(self.net, "r_edge", self.edge_domain)
        self.net.connect(
            self.r_edge, self.r_root, latency=0.02, bandwidth=1.25e8
        )
        self.edge_domain.attach_to_parent(self.r_edge, self.r_root)

        self.server_root = DataCapsuleServer(self.net, "srv_root")
        self.server_root.attach(self.r_root)
        self.server_edge = DataCapsuleServer(self.net, "srv_edge")
        self.server_edge.attach(self.r_edge)

        self.writer_client = GdpClient(self.net, "writer_client")
        self.writer_client.attach(self.r_edge)
        self.reader_client = GdpClient(self.net, "reader_client")
        self.reader_client.attach(self.r_root)

        self.owner_key = SigningKey.from_seed(b"mini-owner")
        self.writer_key = SigningKey.from_seed(b"mini-writer")
        self.console = OwnerConsole(self.writer_client, self.owner_key)

    def run(self, generator, name: str = "test"):
        """Run a process to completion and return its result."""
        return self.net.sim.run_process(generator, name)

    def bootstrap(self):
        """Advertise every endpoint (a process body; run() it or yield
        from it)."""
        yield self.server_root.advertise()
        yield self.server_edge.advertise()
        yield self.writer_client.advertise()
        yield self.reader_client.advertise()

    def place(self, strategy: str = "chain", servers=None, **kwargs):
        """Process body: design + place a capsule; returns metadata."""
        metadata = self.console.design_capsule(
            self.writer_key.public, pointer_strategy=strategy, **kwargs
        )
        targets = servers or [
            self.server_root.metadata,
            self.server_edge.metadata,
        ]
        yield from self.console.place_capsule(metadata, targets)
        yield 0.5  # let re-advertisements land
        return metadata


@pytest.fixture()
def mini_gdp() -> MiniGdp:
    return MiniGdp()


class KeyRing:
    """Deterministic signing keys by label, cached for the session.

    ``ring(b"mallory")`` always returns the same key object for the
    same label (and therefore the same GdpName everywhere), replacing
    the ``SigningKey.from_seed(b"...")`` one-liners that used to be
    scattered across the integration tests.
    """

    def __init__(self, owner: SigningKey, writer: SigningKey):
        self.owner = owner
        self.writer = writer
        self._cache: dict[bytes, SigningKey] = {}

    def __call__(self, label: bytes | str) -> SigningKey:
        seed = label.encode() if isinstance(label, str) else label
        key = self._cache.get(seed)
        if key is None:
            key = self._cache[seed] = SigningKey.from_seed(seed)
        return key


@pytest.fixture(scope="session")
def owner_keys(owner_key, writer_key) -> KeyRing:
    """The shared key ring: ``owner_keys.owner`` / ``owner_keys.writer``
    plus ``owner_keys(b"label")`` for any deterministic extra key."""
    return KeyRing(owner_key, writer_key)


@pytest.fixture(scope="session")
def run_dht():
    """``run_dht(dht, proc)``: run one DHT process (``put_proc``,
    ``get_proc``, ``leave_proc``, a service lookup) to completion on the
    DHT's own network and return its result."""
    return lambda dht, proc: dht.net.ctx.run_process(proc)


@pytest.fixture()
def seeded_rng():
    """Factory for deterministic ``random.Random`` instances:
    ``rng = seeded_rng(7919)``."""

    def build(seed: int) -> random.Random:
        return random.Random(seed)

    return build


@dataclass
class SmallNet:
    """A hub-and-spoke replica fleet for chaos-style tests: one hub
    router, *n* spoke routers each carrying one DataCapsule-server (with
    an idle anti-entropy daemon), and one client on the first spoke."""

    seed: int
    net: SimNetwork
    hub: GdpRouter
    routers: list[GdpRouter] = field(default_factory=list)
    links: list = field(default_factory=list)
    servers: list[DataCapsuleServer] = field(default_factory=list)
    daemons: list[AntiEntropyDaemon] = field(default_factory=list)
    client: GdpClient = None
    console: OwnerConsole = None
    writer_key: SigningKey = None

    def run(self, generator, name: str = "test"):
        """Run a process to completion and return its result."""
        return self.net.sim.run_process(generator, name)


@pytest.fixture()
def small_net():
    """Factory fixture: ``world = small_net(seed)`` builds a fresh
    :class:`SmallNet` (keys are derived from the seed, so distinct
    seeds give distinct capsule names)."""

    def build(seed: int, n_servers: int = 3,
              sync_interval: float = 2.0) -> SmallNet:
        net = SimNetwork(seed=seed)
        clock = lambda: net.sim.now  # noqa: E731
        root = RoutingDomain("global", clock=clock)
        hub = GdpRouter(net, "hub", root)
        world = SmallNet(seed=seed, net=net, hub=hub)
        for i in range(n_servers):
            router = GdpRouter(net, f"r{i}", root)
            link = net.connect(router, hub, latency=0.01, bandwidth=GBPS)
            server = DataCapsuleServer(net, f"s{i}")
            server.attach(router, latency=0.001)
            world.routers.append(router)
            world.links.append(link)
            world.servers.append(server)
            world.daemons.append(
                AntiEntropyDaemon(server, interval=sync_interval)
            )
        world.client = GdpClient(net, "chaos_client")
        world.client.attach(world.routers[0], latency=0.001)
        owner = SigningKey.from_seed(b"chaos-owner-%d" % seed)
        world.writer_key = SigningKey.from_seed(b"chaos-writer-%d" % seed)
        world.console = OwnerConsole(world.client, owner)
        return world

    return build


@pytest.fixture()
def server_metadata_factory():
    """Standalone server metadata (for chain tests without a network)."""
    counter = {"n": 0}

    def build() -> tuple[SigningKey, "object"]:
        counter["n"] += 1
        key = SigningKey.from_seed(b"factory-server-%d" % counter["n"])
        return key, make_server_metadata(
            key, key.public, extra={"n": counter["n"]}
        )

    return build



class ProcessWorld:
    """One capsule whose owner signs placements for it on servers that
    each boot as a fresh process over a :class:`SegmentedStore` root.
    Ops are delivered by direct dispatch; :meth:`sibling_on` gives a
    booted server a reachable sibling when a test needs them to talk."""

    def __init__(self, root: str):
        self.root = root
        self.owner_key = SigningKey.from_seed(b"process-owner")
        writer_key = SigningKey.from_seed(b"process-writer")
        self.console = OwnerConsole(
            GdpClient(SimNetwork(seed=3), "process_owner"), self.owner_key
        )
        self.metadata = self.console.design_capsule(writer_key.public)
        self.name = self.metadata.name
        self.other = DataCapsuleServer(SimNetwork(seed=3), "process_other")
        records, heartbeat = CapsuleWriter(self.metadata, writer_key).append_batch(
            [b"acked-%d" % i for i in range(3)]
        )
        self.run = run_wire(records, heartbeat)

    def boot(self, **store_options) -> DataCapsuleServer:
        """A fresh server process over the store root."""
        return DataCapsuleServer(
            SimNetwork(seed=3),
            "process_s",
            storage=SegmentedStore(self.root, **store_options),
        )

    def sibling_on(
        self, server: DataCapsuleServer, storage=None
    ) -> DataCapsuleServer:
        """A process named as :attr:`other` on *server*'s network, both
        attached to one router and advertised (it stores nothing yet, in
        *storage* or a :class:`MemoryStore`)."""
        net = server.network
        sibling = DataCapsuleServer(net, self.other.node_id, storage=storage)
        clock = lambda: net.sim.now  # noqa: E731
        router = GdpRouter(net, "process_r", RoutingDomain("global", clock=clock))
        for node in (server, sibling):
            node.attach(router)

        def advertise():
            yield server.advertise()
            yield sibling.advertise()

        net.sim.run_process(advertise(), "advertise")
        return sibling

    def placement(self, version: int, servers) -> Placement:
        placement = Placement(self.name, version, servers)
        placement.signature = self.owner_key.sign(placement.signing_preimage())
        return placement

    def _request(self, server: DataCapsuleServer, body: dict) -> dict:
        src = self.console.client.name
        return dispatch_op(server, Pdu(src, server.name, T_DATA, body), body)

    def host(self, server: DataCapsuleServer, placement: Placement) -> dict:
        """Send *server* a ``host`` op carrying *placement*; its reply."""
        chain = self.console.delegate(self.metadata, server.metadata)
        return self._request(server, {
            "op": "host",
            "capsule": self.name.raw,
            "metadata": self.metadata.to_wire(),
            "chain": chain.to_wire(),
            "placement": placement.to_wire(),
        })

    def append(
        self, server: DataCapsuleServer, op: str = "replicate_batch"
    ) -> dict:
        """Deliver the three-record run to *server* as *op* (a sibling's
        ``replicate_batch`` or the writer's ``append_batch``); its reply."""
        return self._request(
            server, {"op": op, "capsule": self.name.raw, **self.run}
        )


@pytest.fixture()
def process_world(tmp_path) -> ProcessWorld:
    return ProcessWorld(str(tmp_path / "store"))


class StoredReplica:
    """A server's replica as a test inspects it: :meth:`get` returns the
    record with its payload, read back through the server's point read
    (the replica itself holds headers only); the rest is the replica."""

    def __init__(self, server: DataCapsuleServer, name):
        self._server = server
        self._name = name

    def get(self, seqno: int):
        (record,) = self._server.stored_records(self._name, seqno)
        return record

    def __getattr__(self, attr: str):
        return getattr(self._server.hosted[self._name].capsule, attr)


@pytest.fixture()
def stored_replica():
    """``stored_replica(server, name)``: a :class:`StoredReplica`."""
    return StoredReplica
