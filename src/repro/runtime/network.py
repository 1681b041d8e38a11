"""The substrate every element is written against: a network plane
and the node base class.

A :class:`Network` is what one process (or one simulation) shares among
its elements: the :class:`~repro.runtime.context.RuntimeContext` that is
the clock and the scheduler, a seeded RNG, the node table, the
:class:`~repro.runtime.metrics.MetricsRegistry` every node scopes its
counters into, and the node-middleware plane (tracing, generic PDU
counting, adversary hooks).  An implementation adds only how PDUs move:

- :class:`~repro.sim.net.SimNetwork` — a
  :class:`~repro.sim.engine.Simulator` as the context, duplex links with
  a delivery (fault-injection) pipeline, and
  :class:`~repro.runtime.transport.SimTransport`;
- :class:`~repro.runtime.socketnet.SocketNetwork` — an
  :class:`~repro.runtime.context.AsyncioContext` and
  :class:`~repro.runtime.transport.AsyncioTransport` over TCP.

Elements reach time and scheduling through ``self.ctx`` only, so the
same classes run on either.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from repro.runtime.context import RuntimeContext
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.middleware import (
    MetricsMiddleware,
    NodeMiddleware,
    NodePipeline,
)
from repro.runtime.trace import TraceMiddleware, TraceStream

if TYPE_CHECKING:  # transport imports routing.pdu; keep this module a leaf
    from repro.runtime.transport import Transport

__all__ = ["Network", "Node"]


class Network:
    """The shared plane of one substrate instance.

    - ``ctx`` — the runtime context (clock + deferred execution);
    - ``rng`` — the seeded RNG elements draw nonces and jitter from;
    - ``nodes`` — ``node_id -> Node``, ids unique;
    - ``metrics`` — the registry every node scopes its named counters
      into (``metrics_enabled=False`` makes all instruments no-ops);
    - node middlewares — installed with :meth:`install_node_middleware`,
      seeded into every node pipeline created via :meth:`node_pipeline`
      (tracing via :meth:`enable_tracing`, generic PDU counting via
      :meth:`enable_node_metrics`).
    """

    def __init__(
        self, ctx: RuntimeContext, *, seed: int = 0, metrics_enabled: bool = True
    ):
        self.ctx = ctx
        self.rng = random.Random(seed)
        self.nodes: dict[str, Node] = {}
        self.metrics = MetricsRegistry(enabled=metrics_enabled)
        self.tracer: TraceStream | None = None
        self._node_middlewares: list[NodeMiddleware] = []

    def _register(self, node: "Node") -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node

    def transport_for(self, node: "Node", **kwargs) -> "Transport":
        """The transport *node* sends and receives PDUs through."""
        raise NotImplementedError

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
        PDU through every node pipeline becomes a span event stamped
        with ``ctx.now``."""
        if self.tracer is None:
            self.tracer = TraceStream(clock=lambda: self.ctx.now)
            self.install_node_middleware(TraceMiddleware(self.tracer))
        return self.tracer

    def enable_node_metrics(self) -> None:
        """Count PDUs/bytes through every node pipeline into the
        registry (``node.pdus_in`` etc.; idempotent).  Also mirrors the
        process-wide crypto cache counters (``crypto.sign``,
        ``crypto.verify``, ``crypto.verify_cached``, ...) into this
        registry's ``crypto`` scope — last network to enable wins, which
        is fine for one single-threaded network per process."""
        from repro.crypto import cache as crypto_cache

        crypto_cache.bind_metrics(self.metrics.node("crypto"))
        for middleware in self._node_middlewares:
            if isinstance(middleware, MetricsMiddleware):
                return
        self.install_node_middleware(MetricsMiddleware(self.metrics))


class Node:
    """Base class for anything attached to a :class:`Network`.

    ``node_id`` is a human label (distinct from GDP names, which live at
    the routing layer).  ``links`` is the node's adjacency — filled by
    the simulator's link layer, empty in socket mode, where peers are
    transport channels; subclasses override :meth:`receive`, the
    link-layer entry.
    """

    def __init__(self, network: Network, node_id: str):
        self.network = network
        self.node_id = node_id
        self.links: list[Any] = []
        #: this node's scope in the network metrics registry
        self.metrics = network.metrics.node(node_id)
        network._register(self)

    @property
    def ctx(self) -> RuntimeContext:
        """The owning runtime context."""
        return self.network.ctx

    def link_to(self, other: "Node") -> Any:
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

    def receive(self, message: Any, sender: "Node", link: Any) -> None:
        """Handle an arriving message; override in subclasses."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.node_id})"
