"""Simulated network: nodes, duplex links, and PDU delivery.

Links model the three quantities that drive the paper's numbers:
propagation latency, serialization bandwidth, and loss.  Bandwidth is
modelled per direction with a *busy-until* horizon: each transmitted
message occupies the line for ``size / bandwidth`` seconds, so sustained
throughput saturates exactly at the configured line rate — which is what
lets Figure 6's rate-vs-PDU-size curve and Figure 8's
residential-uplink-bound write times come out with the right shape.

Nodes address each other by attachment; routing above this layer is the
GDP's job (flat names), not the link layer's.

The network also owns the shared runtime plane (see
:mod:`repro.runtime`): a :class:`~repro.runtime.metrics.MetricsRegistry`
every node scopes its counters into, a delivery middleware pipeline that
every link runs (fault injection installs here), and the optional
deterministic trace stream.
"""

from __future__ import annotations

import random
from typing import Any

from repro.runtime.metrics import MetricsRegistry
from repro.runtime.middleware import (
    DeliveryPipeline,
    MetricsMiddleware,
    NodeMiddleware,
    NodePipeline,
)
from repro.runtime.trace import TraceMiddleware, TraceStream
from repro.sim.engine import Simulator

__all__ = ["SimNetwork", "Node", "Link"]


class Node:
    """Base class for anything attached to the network.

    Subclasses override :meth:`receive`.  ``node_id`` is a human label
    (distinct from GDP names, which live at the routing layer).
    """

    def __init__(self, network: "SimNetwork", node_id: str):
        self.network = network
        self.node_id = node_id
        self.links: list["Link"] = []
        #: this node's scope in the network metrics registry
        self.metrics = network.metrics.node(node_id)
        network._register(self)

    @property
    def sim(self) -> Simulator:
        """The owning simulator."""
        return self.network.sim

    @property
    def ctx(self) -> Simulator:
        """The owning runtime context (the simulator, in sim mode)."""
        return self.network.ctx

    def link_to(self, other: "Node") -> "Link | None":
        """The direct link to *other*, or None."""
        for link in self.links:
            if link.peer(self) is other:
                return link
        return None

    def neighbors(self) -> list["Node"]:
        """Directly linked peer nodes."""
        return [link.peer(self) for link in self.links]

    def send(self, target: "Node", message: Any, size: int) -> None:
        """Send over the direct link to *target* (must be adjacent)."""
        link = self.link_to(target)
        if link is None:
            raise ValueError(f"{self.node_id} has no link to {target.node_id}")
        link.transmit(self, message, size)

    def receive(self, message: Any, sender: "Node", link: "Link") -> None:
        """Handle an arriving message; override in subclasses."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.node_id})"


class Link:
    """A duplex point-to-point link with asymmetric capacity.

    ``bandwidth_ab`` carries traffic A->B, ``bandwidth_ba`` B->A (both in
    bytes/second) — asymmetry models residential up/down links.  ``loss``
    is an i.i.d. drop probability applied per message, drawn from the
    network's seeded RNG.

    Per-link counters live in the network metrics registry under the
    scope ``link:<a>~<b>`` (names ``net.sent`` / ``net.dropped`` /
    ``net.bytes`` / ``net.delivered``).
    """

    def __init__(
        self,
        network: "SimNetwork",
        a: Node,
        b: Node,
        latency: float,
        bandwidth_ab: float,
        bandwidth_ba: float | None = None,
        loss: float = 0.0,
    ):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        if bandwidth_ab <= 0:
            raise ValueError("bandwidth must be > 0")
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        self.network = network
        self.a = a
        self.b = b
        self.latency = latency
        self.bandwidth = {
            (a, b): bandwidth_ab,
            (b, a): bandwidth_ba if bandwidth_ba is not None else bandwidth_ab,
        }
        self.loss = loss
        self._busy_until = {(a, b): 0.0, (b, a): 0.0}
        self.up = True
        self.metrics = metrics = network.metrics.node(
            f"link:{a.node_id}~{b.node_id}"
        )
        # Conservation invariant (the simtest ``conservation`` oracle):
        # at quiesce ``net.sent == net.dropped + net.delivered`` on every
        # link — an offered message is dropped (link down, loss, fault
        # middleware) or delivered, never lost silently.
        self._c_sent = metrics.counter("net.sent")
        self._c_dropped = metrics.counter("net.dropped")
        self._c_bytes = metrics.counter("net.bytes")
        self._c_delivered = metrics.counter("net.delivered")
        a.links.append(self)
        b.links.append(self)

    def peer(self, node: Node) -> Node:
        """The node on the other end of this link."""
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node.node_id} is not on this link")

    def transmit(self, sender: Node, message: Any, size: int) -> None:
        """Queue *message* (of *size* bytes) for delivery to the peer."""
        if size < 0:
            raise ValueError("message size must be >= 0")
        sim = self.network.sim
        receiver = self.peer(sender)
        direction = (sender, receiver)
        self._c_sent.inc()
        if not self.up:
            self._c_dropped.inc()
            return
        if self.loss and self.network.rng.random() < self.loss:
            self._c_dropped.inc()
            return
        self._c_bytes.inc(size)
        serialization = size / self.bandwidth[direction]
        start = max(sim.now, self._busy_until[direction])
        self._busy_until[direction] = start + serialization
        arrival_delay = (start + serialization + self.latency) - sim.now
        pipeline = self.network.delivery
        if pipeline:
            processed = pipeline.run(self, sender, receiver, message, size)
            if processed is None:
                self._c_dropped.inc()
                return
            message, extra_delay = processed
            arrival_delay += extra_delay
        sim.schedule(
            arrival_delay, self._deliver, receiver, message, sender
        )

    def _deliver(self, receiver: Node, message: Any, sender: Node) -> None:
        if not self.up:
            self._c_dropped.inc()
            return
        self._c_delivered.inc()
        receiver.receive(message, sender, self)

    def fail(self) -> None:
        """Take the link down (partition); queued deliveries are dropped."""
        self.up = False

    def recover(self) -> None:
        """Bring the link back up."""
        self.up = True

    def __repr__(self) -> str:
        return (
            f"Link({self.a.node_id}<->{self.b.node_id}, "
            f"{self.latency * 1000:.1f}ms)"
        )


class SimNetwork:
    """The network: a simulator plus nodes, links, and a seeded RNG.

    The network owns the shared runtime plane:

    - ``metrics`` — the :class:`MetricsRegistry` every node and link
      scopes its named counters into (``metrics_enabled=False`` makes
      all instruments no-ops for zero-overhead hot loops);
    - ``delivery`` — the link-level middleware pipeline (fault
      injection);
    - node middlewares — installed with :meth:`install_node_middleware`,
      seeded into every node pipeline created via :meth:`node_pipeline`
      (tracing via :meth:`enable_tracing`, generic PDU counting via
      :meth:`enable_node_metrics`).
    """

    def __init__(self, seed: int = 0, *, metrics_enabled: bool = True):
        self.sim = Simulator()
        self.rng = random.Random(seed)
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        self.metrics = MetricsRegistry(enabled=metrics_enabled)
        self.delivery = DeliveryPipeline()
        self.tracer: TraceStream | None = None
        self._node_middlewares: list[NodeMiddleware] = []

    @property
    def ctx(self) -> Simulator:
        """The runtime context (the simulator itself in sim mode; see
        :class:`~repro.runtime.context.RuntimeContext`)."""
        return self.sim

    def _register(self, node: Node) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node

    def transport_for(self, node: Node, **kwargs):
        """A :class:`~repro.runtime.transport.SimTransport` for *node*
        (peers are adjacent nodes; sends charge the duplex links)."""
        from repro.runtime.transport import SimTransport

        return SimTransport(node, **kwargs)

    def connect(
        self,
        a: Node,
        b: Node,
        *,
        latency: float,
        bandwidth: float,
        bandwidth_up: float | None = None,
        loss: float = 0.0,
    ) -> Link:
        """Create a duplex link; ``bandwidth`` is the A->B (download
        from A's perspective is B->A) rate, ``bandwidth_up`` overrides
        the reverse direction for asymmetric links."""
        link = Link(
            self, a, b, latency, bandwidth, bandwidth_up, loss
        )
        self.links.append(link)
        return link

    def bytes_on_wire(self) -> int:
        """Total bytes serialized onto every link so far — the
        bandwidth-weighted transfer cost the replication bench and the
        O(missing)-bytes property test measure."""
        return sum(link._c_bytes.value for link in self.links)

    # -- the node middleware plane -----------------------------------------

    def node_pipeline(self) -> NodePipeline:
        """A fresh per-node pipeline pre-seeded with the network-wide
        node middlewares (called by endpoint/router constructors)."""
        return NodePipeline(self._node_middlewares)

    def install_node_middleware(self, middleware: NodeMiddleware) -> NodeMiddleware:
        """Install *middleware* on every existing node pipeline and on
        every pipeline created afterwards."""
        self._node_middlewares.append(middleware)
        for node in self.nodes.values():
            pipeline = getattr(node, "pipeline", None)
            if pipeline is not None:
                pipeline.use(middleware)
        return middleware

    def remove_node_middleware(self, middleware: NodeMiddleware) -> None:
        """Undo :meth:`install_node_middleware`."""
        self._node_middlewares.remove(middleware)
        for node in self.nodes.values():
            pipeline = getattr(node, "pipeline", None)
            if pipeline is not None and middleware in pipeline:
                pipeline.remove(middleware)

    def enable_tracing(self) -> TraceStream:
        """Turn on the deterministic trace stream (idempotent); every
        PDU through every node pipeline becomes a span event."""
        if self.tracer is None:
            self.tracer = TraceStream(clock=lambda: self.sim.now)
            self.install_node_middleware(TraceMiddleware(self.tracer))
        return self.tracer

    def enable_node_metrics(self) -> None:
        """Count PDUs/bytes through every node pipeline into the
        registry (``node.pdus_in`` etc.; idempotent).  Also mirrors the
        process-wide crypto cache counters (``crypto.sign``,
        ``crypto.verify``, ``crypto.verify_cached``, ...) into this
        registry's ``crypto`` scope — last network to enable wins, which
        is fine for the single-threaded simulator."""
        from repro.crypto import cache as crypto_cache

        crypto_cache.bind_metrics(self.metrics.node("crypto"))
        for middleware in self._node_middlewares:
            if isinstance(middleware, MetricsMiddleware):
                return
        self.install_node_middleware(MetricsMiddleware(self.metrics))
