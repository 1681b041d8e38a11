"""SocketNetwork: the element substrate in socket (real-process) mode.

The protocol elements (endpoints, routers, servers) are written against
:class:`~repro.runtime.network.Network` — ``ctx`` (clock + scheduling),
``rng``, ``metrics``, the node-middleware plane, ``transport_for()``.
This class is that plane over an asyncio event loop, so the *same*
classes that run on :class:`~repro.sim.net.SimNetwork` run as real
networked processes: time is the loop's monotonic clock, transports
speak TCP, and there are no links.

One :class:`SocketNetwork` per OS process (shared-nothing fleet model);
cross-process communication is TCP only.
"""

from __future__ import annotations

from repro.runtime.context import AsyncioContext
from repro.runtime.network import Network
from repro.runtime.transport import AsyncioTransport

__all__ = ["SocketNetwork"]


class SocketNetwork(Network):
    """A :class:`Network` whose context is an asyncio event loop and
    whose transports are TCP."""

    def __init__(
        self,
        ctx: AsyncioContext | None = None,
        *,
        seed: int = 0,
        metrics_enabled: bool = True,
    ):
        super().__init__(
            ctx or AsyncioContext(), seed=seed, metrics_enabled=metrics_enabled
        )

    def transport_for(self, node, **kwargs) -> AsyncioTransport:
        """An :class:`AsyncioTransport` announcing *node*'s identity."""
        name = getattr(node, "name", None)
        metadata = getattr(node, "metadata", None)
        return AsyncioTransport(
            self.ctx,
            label=node.node_id,
            name_raw=name.raw if name is not None else b"",
            metadata_wire=metadata.to_wire() if metadata is not None else None,
            **kwargs,
        )
