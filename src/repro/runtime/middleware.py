"""Middleware pipelines: every PDU flows through composable stages.

Two interception surfaces exist in the simulated GDP:

**Node pipelines** (:class:`NodePipeline`) — each endpoint/router owns
one; every inbound and outbound PDU passes through it.  Middlewares see
``(node, pdu, ...)`` and may pass (``None``), replace the PDU (return a
new one), or swallow it (return :data:`DROP`).  Metrics and tracing
install here.

**The delivery pipeline** (:class:`DeliveryPipeline`) — one per
:class:`~repro.sim.net.SimNetwork`, run by every link at transmit time.
This is where the paper's §IV-C threat model lives: on-path adversaries
drop, delay, corrupt, and replay messages as declared middlewares (see
:mod:`repro.runtime.faults`) instead of wrapping simulator internals.
A delivery middleware may additionally return :class:`Delay` to push
the arrival time back.

Both pipelines run middlewares in installation order, which keeps runs
deterministic; an empty pipeline is falsy so hot paths can skip it with
one cheap check.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "DROP",
    "Delay",
    "NodeMiddleware",
    "NodePipeline",
    "DeliveryMiddleware",
    "DeliveryPipeline",
    "MetricsMiddleware",
]


class _Drop:
    """Sentinel verdict: swallow the message."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<DROP>"


DROP = _Drop()


class Delay:
    """Delivery verdict: push the arrival back by *seconds*."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        if seconds < 0:
            raise ValueError("delay must be >= 0")
        self.seconds = seconds

    def __repr__(self) -> str:
        return f"Delay({self.seconds}s)"


class NodeMiddleware:
    """Base class for per-node PDU middlewares (all hooks optional).

    Hooks return ``None`` to pass the PDU on unchanged, :data:`DROP` to
    swallow it, or a replacement PDU.
    """

    __slots__ = ()

    def inbound(self, node, pdu, sender):
        """An arriving PDU, before the node processes it."""
        return None

    def outbound(self, node, pdu):
        """A departing PDU, before it hits the wire."""
        return None


class NodePipeline:
    """An ordered chain of :class:`NodeMiddleware`."""

    __slots__ = ("_middlewares",)

    def __init__(self, middlewares=()):
        self._middlewares: list[NodeMiddleware] = list(middlewares)

    def use(self, middleware: NodeMiddleware) -> NodeMiddleware:
        """Append *middleware* (returns it, for chaining)."""
        self._middlewares.append(middleware)
        return middleware

    def remove(self, middleware: NodeMiddleware) -> None:
        """Remove a previously installed middleware."""
        self._middlewares.remove(middleware)

    def run_inbound(self, node, pdu, sender):
        """Run the inbound chain; returns the (possibly replaced) PDU,
        or None when a middleware dropped it."""
        for middleware in self._middlewares:
            verdict = middleware.inbound(node, pdu, sender)
            if verdict is None:
                continue
            if verdict is DROP:
                return None
            pdu = verdict
        return pdu

    def run_outbound(self, node, pdu):
        """Run the outbound chain; same verdict semantics."""
        for middleware in self._middlewares:
            verdict = middleware.outbound(node, pdu)
            if verdict is None:
                continue
            if verdict is DROP:
                return None
            pdu = verdict
        return pdu

    def __bool__(self) -> bool:
        return bool(self._middlewares)

    def __len__(self) -> int:
        return len(self._middlewares)

    def __iter__(self):
        return iter(self._middlewares)

    def __repr__(self) -> str:
        return f"NodePipeline({[type(m).__name__ for m in self._middlewares]})"


class DeliveryMiddleware:
    """Base class for link-delivery middlewares.

    ``on_deliver`` verdicts: ``None`` passes, :data:`DROP` drops,
    :class:`Delay` adds arrival delay, anything else replaces the
    message.
    """

    __slots__ = ()

    def on_deliver(self, link, sender, receiver, message: Any, size: int):
        """One message crossing *link*; see class docstring for verdicts."""
        return None


class DeliveryPipeline:
    """An ordered chain of :class:`DeliveryMiddleware` on one network."""

    __slots__ = ("_middlewares",)

    def __init__(self):
        self._middlewares: list[DeliveryMiddleware] = []

    def use(self, middleware: DeliveryMiddleware) -> DeliveryMiddleware:
        """Append *middleware* (returns it, for chaining)."""
        self._middlewares.append(middleware)
        return middleware

    def remove(self, middleware: DeliveryMiddleware) -> None:
        """Remove a previously installed middleware."""
        self._middlewares.remove(middleware)

    def run(self, link, sender, receiver, message: Any, size: int):
        """Run the chain; returns ``(message, extra_delay)`` or None
        when the message was dropped."""
        extra_delay = 0.0
        for middleware in self._middlewares:
            verdict = middleware.on_deliver(link, sender, receiver, message, size)
            if verdict is None:
                continue
            if verdict is DROP:
                return None
            if isinstance(verdict, Delay):
                extra_delay += verdict.seconds
                continue
            message = verdict
        return message, extra_delay

    def __bool__(self) -> bool:
        return bool(self._middlewares)

    def __len__(self) -> int:
        return len(self._middlewares)

    def __repr__(self) -> str:
        return (
            f"DeliveryPipeline({[type(m).__name__ for m in self._middlewares]})"
        )


class MetricsMiddleware(NodeMiddleware):
    """Counts PDUs and bytes through a node's pipeline.

    Installs the uniform per-node instruments ``node.pdus_in``,
    ``node.pdus_out``, ``node.bytes_in``, ``node.bytes_out`` into the
    network's :class:`~repro.runtime.metrics.MetricsRegistry`.
    """

    __slots__ = ("registry",)

    def __init__(self, registry):
        self.registry = registry

    def inbound(self, node, pdu, sender):
        metrics = self.registry.node(node.node_id)
        metrics.counter("node.pdus_in").inc()
        metrics.counter("node.bytes_in").inc(pdu.size_bytes)
        return None

    def outbound(self, node, pdu):
        metrics = self.registry.node(node.node_id)
        metrics.counter("node.pdus_out").inc()
        metrics.counter("node.bytes_out").inc(pdu.size_bytes)
        return None
