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

The shared plane — context, RNG, node table, metrics registry, node
middlewares, tracing — is :class:`repro.runtime.network.Network`'s;
:class:`SimNetwork` adds what only a simulation has: the
:class:`~repro.sim.engine.Simulator` as that context, the links, and the
delivery middleware pipeline every link runs (fault injection installs
here).
"""

from __future__ import annotations

from typing import Any

from repro.runtime.middleware import DeliveryPipeline
from repro.runtime.network import Network, Node
from repro.runtime.transport import SimTransport
from repro.sim.engine import Simulator

__all__ = ["SimNetwork", "Node", "Link"]


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
        sim = self.network.ctx
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


class SimNetwork(Network):
    """The simulated network: a :class:`Network` whose context is a
    :class:`Simulator`, plus duplex links and ``delivery`` — the
    link-level middleware pipeline (fault injection)."""

    def __init__(self, seed: int = 0, *, metrics_enabled: bool = True):
        super().__init__(
            Simulator(), seed=seed, metrics_enabled=metrics_enabled
        )
        #: the simulator handle scenario drivers hold (``net.sim.run()``);
        #: the same object as ``ctx``
        self.sim: Simulator = self.ctx
        self.links: list[Link] = []
        self.delivery = DeliveryPipeline()

    def transport_for(self, node: Node, **kwargs) -> SimTransport:
        """A :class:`~repro.runtime.transport.SimTransport` for *node*
        (peers are adjacent nodes; sends charge the duplex links)."""
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
