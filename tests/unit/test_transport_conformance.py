"""Transport conformance: both implementations honor one contract.

The same checks run against :class:`SimTransport` (simulated links) and
:class:`AsyncioTransport` (length-prefixed frames over real loopback
TCP): per-peer FIFO ordering, closed-transport errors plus reconnect,
oversized-frame rejection, and backpressure accounting.  The asyncio
cases are marked ``transport`` (they open real sockets) and run in the
socket-smoke CI job; the sim cases are tier-1.

:class:`TestSubstrateConformance` holds the two network planes to the
one :class:`~repro.runtime.network.Network` surface the elements are
written against, and runs the Kademlia DHT on each.  Its socket half
needs no socket (``local_pair``), so it is tier-1 *and* ``transport``:
both jobs run it.
"""

import pytest

from repro.crypto import SigningKey
from repro.errors import TransportError, WireFormatError
from repro.naming import GdpName, make_client_metadata
from repro.routing import Endpoint, GdpRouter, RoutingDomain
from repro.routing.dht import KademliaDht
from repro.routing.pdu import Pdu
from repro.runtime.middleware import NodeMiddleware
from repro.runtime.network import Network
from repro.runtime.socketnet import SocketNetwork
from repro.runtime.transport import local_pair
from repro.sim import build_dht
from repro.sim.net import Node, SimNetwork

SRC = GdpName(b"\x0a" * 32)
DST = GdpName(b"\x0b" * 32)


def make_pdu(i: int = 0, size: int = 0) -> Pdu:
    return Pdu(SRC, DST, "data", {"i": i, "pad": b"\x00" * size})


class _SimElement(Node):
    """A bare node that feeds arriving messages into its transport."""

    def __init__(self, network, node_id, **transport_kwargs):
        super().__init__(network, node_id)
        self.inbox: list[tuple[Pdu, object]] = []
        self.transport = network.transport_for(
            self, **transport_kwargs
        ).bind(lambda pdu, peer: self.inbox.append((pdu, peer)))

    def receive(self, message, sender, link):
        self.transport.deliver(message, sender)


class SimPair:
    """Two linked sim elements; A sends to B."""

    kind = "sim"

    def __init__(self, **transport_kwargs):
        self.net = SimNetwork(seed=3)
        self.a = _SimElement(self.net, "a", **transport_kwargs)
        self.b = _SimElement(self.net, "b", **transport_kwargs)
        self.net.connect(
            self.a, self.b, latency=0.001, bandwidth=1_000_000.0
        )
        self._kwargs = transport_kwargs
        self._reconnects = 0

    def send(self, pdu):
        self.a.transport.send(self.b, pdu)

    def pump(self):
        self.net.sim.run()

    def inbox(self):
        return [pdu for pdu, _peer in self.b.inbox]

    @property
    def sender(self):
        return self.a.transport

    @property
    def receiver(self):
        return self.b.transport

    def close_sender(self):
        self.a.transport.close()

    def reconnect(self):
        self._reconnects += 1
        self.a.transport = self.net.transport_for(
            self.a, **self._kwargs
        ).bind(lambda pdu, peer: self.a.inbox.append((pdu, peer)))

    def teardown(self):
        pass


class AsyncioPair:
    """A dialer (A) connected to a listener (B) over loopback TCP."""

    kind = "asyncio"

    def __init__(self, **transport_kwargs):
        from repro.runtime.context import AsyncioContext
        from repro.runtime.transport import AsyncioTransport

        self._AsyncioTransport = AsyncioTransport
        self.ctx = AsyncioContext()
        self._kwargs = transport_kwargs
        self.received: list[Pdu] = []
        self.tb = AsyncioTransport(
            self.ctx, label="b", name_raw=DST.raw, **transport_kwargs
        ).bind(lambda pdu, peer: self.received.append(pdu))
        _, self.port = self.ctx.loop.run_until_complete(
            self.tb.listen("127.0.0.1", 0)
        )
        self.ta = None
        self.channel = None
        self.reconnect()

    def reconnect(self):
        self.ta = self._AsyncioTransport(
            self.ctx, label="a", name_raw=SRC.raw, **self._kwargs
        ).bind(lambda pdu, peer: None)
        self.channel = self.ctx.loop.run_until_complete(
            self.ta.dial("127.0.0.1", self.port)
        )

    def send(self, pdu):
        self.ta.send(self.channel, pdu)

    def throttle(self):
        """Shrink the kernel send buffer so bursts hit the userspace
        write buffer (and its high-water pause) instead of vanishing
        into loopback buffering."""
        import socket

        sock = self.channel._proto.get_extra_info("socket")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

    def pump(self, min_count: int | None = None):
        import asyncio

        target = min_count

        async def _pump():
            deadline = self.ctx.loop.time() + 5.0
            while self.ctx.loop.time() < deadline:
                if target is not None and len(self.received) >= target:
                    return
                if target is None:
                    await asyncio.sleep(0.05)
                    return
                await asyncio.sleep(0.005)
            raise AssertionError(
                f"pump timeout: {len(self.received)} < {target}"
            )

        self.ctx.loop.run_until_complete(_pump())

    def inbox(self):
        return list(self.received)

    @property
    def sender(self):
        return self.ta

    @property
    def receiver(self):
        return self.tb

    def close_sender(self):
        self.ta.close()

    def teardown(self):
        self.tb.close()
        if self.ta is not None:
            self.ta.close()
        self.ctx.loop.run_until_complete(
            self.ctx.loop.shutdown_asyncgens()
        )
        self.ctx.loop.close()


PAIRS = [
    pytest.param(SimPair, id="sim"),
    pytest.param(AsyncioPair, id="asyncio", marks=pytest.mark.transport),
]


@pytest.fixture(params=PAIRS)
def pair_cls(request):
    return request.param


def run_pair(pair_cls, **kwargs):
    pair = pair_cls(**kwargs)
    return pair


class TestConformance:
    def test_per_peer_fifo_ordering(self, pair_cls):
        pair = run_pair(pair_cls)
        try:
            for i in range(20):
                pair.send(make_pdu(i))
            pair.pump(20) if pair.kind == "asyncio" else pair.pump()
            got = [pdu.payload["i"] for pdu in pair.inbox()]
            assert got == list(range(20))
            assert pair.sender.sent == 20
            assert pair.receiver.delivered == 20
        finally:
            pair.teardown()

    def test_closed_transport_refuses_sends(self, pair_cls):
        pair = run_pair(pair_cls)
        try:
            pair.send(make_pdu(0))
            pair.close_sender()
            with pytest.raises(TransportError):
                pair.send(make_pdu(1))
        finally:
            pair.teardown()

    def test_reconnect_after_close(self, pair_cls):
        pair = run_pair(pair_cls)
        try:
            pair.close_sender()
            with pytest.raises(TransportError):
                pair.send(make_pdu(0))
            pair.reconnect()
            pair.send(make_pdu(7))
            pair.pump(1) if pair.kind == "asyncio" else pair.pump()
            assert [pdu.payload["i"] for pdu in pair.inbox()] == [7]
        finally:
            pair.teardown()

    def test_oversized_frame_rejected(self, pair_cls):
        pair = run_pair(pair_cls, max_frame=512)
        try:
            pair.send(make_pdu(0))  # small one is fine
            with pytest.raises(WireFormatError):
                pair.send(make_pdu(1, size=4096))
            assert pair.sender.oversized == 1
            # The oversized PDU never reached the wire.
            pair.pump(1) if pair.kind == "asyncio" else pair.pump()
            assert len(pair.inbox()) == 1
        finally:
            pair.teardown()

    def test_backpressure_counter(self, pair_cls):
        if pair_cls.kind == "sim":
            pair = run_pair(pair_cls)
        else:
            pair = run_pair(pair_cls, write_high_water=256)
        try:
            # A burst far beyond one frame of line capacity (sim) or the
            # kernel-plus-userspace write buffering (TCP loopback).
            count = 50 if pair.kind == "sim" else 400
            if pair.kind == "asyncio":
                pair.throttle()
            for i in range(count):
                pair.send(make_pdu(i, size=8192))
            assert pair.sender.backpressure > 0
            pair.pump(count) if pair.kind == "asyncio" else pair.pump()
            assert len(pair.inbox()) == count  # delayed, not dropped
        finally:
            pair.teardown()


SUBSTRATES = [
    pytest.param(SimNetwork, id="sim"),
    pytest.param(
        SocketNetwork,
        id="socket",
        marks=[pytest.mark.transport, pytest.mark.tier1],
    ),
]


def close(net) -> None:
    loop = getattr(net.ctx, "loop", None)
    if loop is not None:
        loop.close()


class TestSubstrateConformance:
    """One ``Endpoint`` + ``GdpRouter`` on each network plane: the
    surface the elements use is the same object-for-object.  A DHT
    ring runs unchanged on either."""

    @staticmethod
    def build(network_cls):
        net = network_cls(seed=3)
        router = GdpRouter(
            net, "r0", RoutingDomain("global", clock=lambda: net.ctx.now)
        )
        key = SigningKey.from_seed(b"substrate")
        endpoint = Endpoint(net, "e0", make_client_metadata(key), key)
        if isinstance(net, SimNetwork):
            endpoint.attach(router)
        else:
            end, _ = local_pair(net.ctx, endpoint.transport, router.transport)
            endpoint.attach_channel(end, router.name)
        return net, router, endpoint

    @staticmethod
    def advertise(net, endpoint):
        def scenario():
            return (yield endpoint.advertise())

        return net.ctx.run_process(scenario())

    @staticmethod
    def dht_ring(network_cls):
        """Four DHT nodes in a full mesh: simulated links, or in-process
        channels entered into the peer tables."""
        net = network_cls(seed=3)
        names = [GdpName.derive("substrate.dht", i) for i in range(4)]
        if isinstance(net, SimNetwork):
            return net, build_dht(net, names, k=4)
        dht = KademliaDht(net, k=4)
        for name in names:
            members = list(dht.nodes.values())
            node = dht.join(name)
            for other in members:
                node.peers[other.node_id], other.peers[node.node_id] = (
                    local_pair(net.ctx, node.transport, other.transport)
                )
            if members:
                net.ctx.run_process(dht.join_proc(node))
        return net, dht

    @pytest.mark.parametrize("network_cls", SUBSTRATES)
    def test_shared_surface(self, network_cls):
        net, router, endpoint = self.build(network_cls)
        try:
            assert isinstance(net, Network)
            assert endpoint.ctx is net.ctx and router.ctx is net.ctx
            assert net.nodes == {"r0": router, "e0": endpoint}
            with pytest.raises(ValueError, match="duplicate node id"):
                Node(net, "e0")

            # Node middlewares reach existing pipelines and later ones, and
            # removal undoes both.
            marker = net.install_node_middleware(NodeMiddleware())
            assert marker in router.pipeline and marker in endpoint.pipeline
            assert marker in net.node_pipeline()
            net.remove_node_middleware(marker)
            assert marker not in router.pipeline
            assert marker not in endpoint.pipeline
            assert marker not in net.node_pipeline()

            net.enable_node_metrics()
            tracer = net.enable_tracing()
            assert net.enable_tracing() is tracer  # idempotent
            started = net.ctx.now
            assert self.advertise(net, endpoint) == [endpoint.name.raw]
            assert net.metrics.node("r0").counter("node.pdus_in").value >= 2
            assert net.metrics.node("e0").counter("node.pdus_out").value >= 2
            assert tracer.events
            assert all(started <= e[0] <= net.ctx.now for e in tracer.events)
        finally:
            close(net)

    @pytest.mark.parametrize("network_cls", SUBSTRATES)
    def test_dht_put_then_get(self, network_cls):
        net, dht = self.dht_ring(network_cls)
        try:
            first, *_, last = sorted(dht.nodes)
            key = GdpName.derive("substrate.dht.key", 0)
            put = net.ctx.run_process(dht.put_proc(first, key, b"both"))
            assert put.acked == 4
            got = net.ctx.run_process(dht.get_proc(last, key))
            assert got.values == [b"both"]
            assert dht.metrics.counter("dht.timeouts").value == 0
        finally:
            close(net)

    def test_implementations_add_only_their_transport(self):
        def public(cls):
            return {name for name in vars(cls) if not name.startswith("_")}

        assert public(SimNetwork) & public(SocketNetwork) == {"transport_for"}
        assert public(SocketNetwork) == {"transport_for"}
        for cls in (SimNetwork, SocketNetwork):
            assert cls.__bases__ == (Network,)
