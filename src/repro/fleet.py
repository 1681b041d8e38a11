"""Multi-process GDP fleet: shared-nothing servers over real sockets.

``repro serve --fleet N`` boots *N* OS processes, each owning one
asyncio event loop, one :class:`~repro.routing.router.GdpRouter`, and
one :class:`~repro.server.dcserver.DataCapsuleServer` attached to it
in-process.  The processes interconnect pairwise over TCP (every
process dials every lower-indexed one), install static routes to each
other's server names, and learn client reverse paths from traversing
PDUs — so a client attached to any process can reach every replica
without a shared GLookupService (distributed GLookup is a separate
roadmap item).

Identity is deterministic: process *i*'s router/server node ids are
``fleet_r{i}`` / ``fleet_s{i}``, and their keys derive from those ids,
so any client can reconstruct every server's metadata (and therefore
place capsules on them) from the fleet size alone.  With a storage
root, process *i* keeps its store in ``s{i}``; a process booted over a
store that already holds capsules recovers them
(``DataCapsuleServer.recover_from_storage``) before it advertises, so a
relaunched fleet serves what it acknowledged.

Discovery uses a rendezvous directory: each process writes
``{index}.port`` once listening and ``{index}.ready`` once advertised
and interconnected.  SIGINT/SIGTERM triggers a graceful drain (stop
accepting, finish in-flight ops, fsync, close transports) before exit,
recorded in ``{index}.drained``.
"""

from __future__ import annotations

import json
import os
import signal
import time

from repro.crypto.keys import SigningKey
from repro.naming.metadata import (
    Metadata,
    make_router_metadata,
    make_server_metadata,
)
from repro.naming.names import GdpName

__all__ = ["FleetSpec", "serve_process", "FleetLauncher"]

#: how long a booting process waits for a peer's port file
_PEER_WAIT_S = 30.0


class FleetSpec:
    """Everything a fleet process needs to boot, picklable as a dict."""

    def __init__(
        self,
        processes: int,
        rendezvous: str,
        *,
        host: str = "127.0.0.1",
        storage_root: str | None = None,
        fsync: bool = False,
        seed: int = 0,
    ):
        if processes < 1:
            raise ValueError("a fleet needs at least one process")
        self.processes = processes
        self.rendezvous = rendezvous
        self.host = host
        self.storage_root = storage_root
        self.fsync = fsync
        self.seed = seed

    # -- deterministic identity --------------------------------------------

    @staticmethod
    def router_node_id(index: int) -> str:
        return f"fleet_r{index}"

    @staticmethod
    def server_node_id(index: int) -> str:
        return f"fleet_s{index}"

    @classmethod
    def router_metadata(cls, index: int) -> Metadata:
        node_id = cls.router_node_id(index)
        key = SigningKey.from_seed(b"router:" + node_id.encode())
        return make_router_metadata(key, key.public, extra={"node_id": node_id})

    @classmethod
    def server_metadata(cls, index: int) -> Metadata:
        node_id = cls.server_node_id(index)
        key = SigningKey.from_seed(b"server:" + node_id.encode())
        return make_server_metadata(key, key.public, extra={"node_id": node_id})

    @classmethod
    def server_name(cls, index: int) -> GdpName:
        return cls.server_metadata(index).name

    @staticmethod
    def index_of_label(label: str) -> int | None:
        """The fleet index a channel banner label refers to, or None
        for non-fleet peers (clients)."""
        for prefix in ("chan:fleet_r", "fleet_r"):
            if label.startswith(prefix):
                try:
                    return int(label[len(prefix):])
                except ValueError:
                    return None
        return None

    # -- rendezvous files ---------------------------------------------------

    def port_file(self, index: int) -> str:
        return os.path.join(self.rendezvous, f"{index}.port")

    def ready_file(self, index: int) -> str:
        return os.path.join(self.rendezvous, f"{index}.ready")

    def drained_file(self, index: int) -> str:
        return os.path.join(self.rendezvous, f"{index}.drained")

    def write_file(self, path: str, content: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)

    def read_port(self, index: int, timeout: float = _PEER_WAIT_S) -> int:
        """Block until process *index* has published its port."""
        deadline = time.monotonic() + timeout
        path = self.port_file(index)
        while time.monotonic() < deadline:
            try:
                with open(path) as fh:
                    text = fh.read().strip()
                if text:
                    return int(text)
            except (FileNotFoundError, ValueError):
                pass
            time.sleep(0.05)
        raise TimeoutError(f"fleet process {index} never published a port")

    def wait_ready(self, timeout: float = _PEER_WAIT_S) -> list[int]:
        """Block until every process wrote its ready file; returns the
        fleet's ports."""
        deadline = time.monotonic() + timeout
        for index in range(self.processes):
            remaining = max(0.1, deadline - time.monotonic())
            self.read_port(index, timeout=remaining)
            path = self.ready_file(index)
            while not os.path.exists(path):
                if time.monotonic() > deadline:
                    raise TimeoutError(f"fleet process {index} never ready")
                time.sleep(0.05)
        return [self.read_port(i, timeout=1.0) for i in range(self.processes)]

    def to_dict(self) -> dict:
        return {
            "processes": self.processes,
            "rendezvous": self.rendezvous,
            "host": self.host,
            "storage_root": self.storage_root,
            "fsync": self.fsync,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        return cls(
            data["processes"],
            data["rendezvous"],
            host=data.get("host", "127.0.0.1"),
            storage_root=data.get("storage_root"),
            fsync=data.get("fsync", False),
            seed=data.get("seed", 0),
        )


def serve_process(index: int, spec: FleetSpec) -> dict:
    """Run fleet process *index* until SIGINT/SIGTERM, then drain.

    Returns a shutdown summary dict (also written to the rendezvous
    directory as ``{index}.drained``).
    """
    from repro.routing.domain import RoutingDomain
    from repro.routing.router import GdpRouter
    from repro.runtime.context import AsyncioContext
    from repro.runtime.socketnet import SocketNetwork
    from repro.runtime.transport import local_pair
    from repro.server.dcserver import DataCapsuleServer
    from repro.server.segmented import SegmentedStore

    ctx = AsyncioContext()
    net = SocketNetwork(ctx, seed=spec.seed + index)
    domain = RoutingDomain("global", clock=lambda: ctx.now)
    router = GdpRouter(net, spec.router_node_id(index), domain)
    # No shared GLookup across processes: responses retrace the request
    # path instead.
    router.learn_source_routes = True

    storage = None
    if spec.storage_root is not None:
        # Batched fsync: durability with bounded loss instead of one
        # fsync per ack (ARCHITECTURE.md §14.2).
        storage = SegmentedStore(
            os.path.join(spec.storage_root, f"s{index}"),
            fsync_policy="batch:65536" if spec.fsync else "drain",
        )
    server = DataCapsuleServer(
        net, spec.server_node_id(index), storage=storage
    )
    s_end, _ = local_pair(
        ctx,
        server.transport,
        router.transport,
        f"chan:{server.node_id}>{router.node_id}",
        f"chan:{router.node_id}>{server.node_id}",
    )
    server.attach_channel(s_end, router.name)

    # Interconnect wiring: static routes to remote servers by fleet index.
    def wire_remote(remote_index: int, channel) -> None:
        if remote_index == index:
            return
        router.add_static_route(spec.server_name(remote_index), channel)

    def on_channel(channel) -> None:
        remote_index = spec.index_of_label(channel.node_id)
        if remote_index is not None:
            wire_remote(remote_index, channel)

    router.transport.on_channel = on_channel

    _, port = ctx.loop.run_until_complete(
        router.transport.listen(spec.host, 0)
    )
    spec.write_file(spec.port_file(index), str(port))

    # Every process dials its lower-indexed peers; acceptors wire the
    # reverse direction from the banner label.
    for peer_index in range(index):
        peer_port = spec.read_port(peer_index)
        channel = ctx.loop.run_until_complete(
            router.transport.dial(spec.host, peer_port)
        )
        wire_remote(peer_index, channel)

    server.recover_from_storage()

    def boot():
        yield server.advertise(server.catalog_entries())

    ctx.run_process(boot(), "boot")
    spec.write_file(spec.ready_file(index), str(os.getpid()))

    # Graceful lifecycle: first signal starts the drain; the loop stops
    # once the server flushed.
    state = {"draining": False, "summary": None}

    def shutdown():
        drain_ms = yield from server.drain()
        router.transport.close()
        server.transport.close()
        if storage is not None:
            storage.close()
        state["summary"] = {
            "index": index,
            "drain_ms": drain_ms,
            "inflight_after_drain": server._inflight,
            "appends": server.stats["appends"],
            "replications": server.stats["replications"],
            "reads": server.stats["reads"],
            "pdus_delivered": router.transport.delivered,
            "pdus_sent": router.transport.sent,
        }
        ctx.loop.stop()

    def on_signal() -> None:
        if state["draining"]:
            return
        state["draining"] = True
        ctx.spawn(shutdown(), "shutdown")

    for signum in (signal.SIGINT, signal.SIGTERM):
        ctx.loop.add_signal_handler(signum, on_signal)

    ctx.loop.run_forever()
    summary = state["summary"] or {"index": index, "drain_ms": None}
    spec.write_file(spec.drained_file(index), json.dumps(summary, indent=2))
    return summary


def _child_entry(index: int, spec_dict: dict) -> None:
    serve_process(index, FleetSpec.from_dict(spec_dict))


class FleetLauncher:
    """Spawn, watch, and stop a fleet from a parent process."""

    def __init__(self, spec: FleetSpec):
        self.spec = spec
        self.children: list = []

    def start(self) -> None:
        """Spawn one OS process per fleet index."""
        import multiprocessing

        os.makedirs(self.spec.rendezvous, exist_ok=True)
        mp = multiprocessing.get_context("spawn")
        for index in range(self.spec.processes):
            child = mp.Process(
                target=_child_entry,
                args=(index, self.spec.to_dict()),
                name=f"gdp-fleet-{index}",
            )
            child.start()
            self.children.append(child)

    def wait_ready(self, timeout: float = _PEER_WAIT_S) -> list[int]:
        """Ports of the fleet, once every process reports ready."""
        return self.spec.wait_ready(timeout)

    def stop(self, timeout: float = 30.0) -> list[dict]:
        """SIGTERM every child, wait for the graceful drain, and return
        the per-process shutdown summaries."""
        for child in self.children:
            if child.is_alive():
                os.kill(child.pid, signal.SIGTERM)
        for child in self.children:
            child.join(timeout)
            if child.is_alive():
                child.terminate()
                child.join(5)
        summaries = []
        for index in range(self.spec.processes):
            try:
                with open(self.spec.drained_file(index)) as fh:
                    summaries.append(json.load(fh))
            except (FileNotFoundError, ValueError):
                summaries.append({"index": index, "drain_ms": None})
        return summaries

    def alive(self) -> bool:
        return any(child.is_alive() for child in self.children)
