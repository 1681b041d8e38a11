"""Simulated SSHFS (the Figure 8 network-filesystem baseline).

§IX runs SSHFS "on the same host as our GDP infrastructure" because
"TensorFlow's S3 implementation for loading data is not particularly
efficient, thus the non-standard use of SSHFS with TensorFlow provides a
better comparison".

The performance-defining property of SSHFS is its request/response block
transfer: the FUSE layer issues reads/writes in blocks (default ~64 KiB
max SFTP request) with a bounded number of outstanding requests.  On a
low-latency LAN that is nearly free; over a WAN each round trip costs,
and the bounded window keeps the pipe from filling — which is why SSHFS
lands *between* a streaming object transfer and naive per-block
stop-and-wait in Figure 8's cloud columns.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.crypto.keys import SigningKey
from repro.errors import RecordNotFoundError, TransportError
from repro.naming.metadata import make_server_metadata
from repro.routing.endpoint import Endpoint
from repro.routing.pdu import Pdu
from repro.runtime.dispatch import dispatch_op, op
from repro.runtime.context import Future
from repro.runtime.network import Network

__all__ = ["SshfsServer", "SshfsClient"]


class SshfsServer(Endpoint):
    """The remote side: a block-granular file server over 'SSH'."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        *,
        request_latency: float = 0.0005,
    ):
        key = SigningKey.from_seed(b"sshfs:" + node_id.encode())
        metadata = make_server_metadata(
            key, key.public, extra={"node_id": node_id, "service": "sshfs"}
        )
        super().__init__(network, node_id, metadata, key)
        self.request_latency = request_latency
        self.files: dict[str, bytearray] = {}
        self._c_reads = self.metrics.counter("sshfs.reads")
        self._c_writes = self.metrics.counter("sshfs.writes")

    def on_request(self, pdu: Pdu) -> Any:
        """Serve one application request (see class docstring) after
        the per-request service latency, through typed op dispatch."""
        result = self.ctx.future()
        self.ctx.schedule(
            self.request_latency,
            lambda: result.resolve(dispatch_op(self, pdu, pdu.payload)),
        )
        return result

    @op("write_block", path=str, offset=int, data=bytes)
    def _op_write_block(self, pdu: Pdu, payload: dict) -> dict:
        buf = self.files.setdefault(payload["path"], bytearray())
        offset = payload["offset"]
        data = payload["data"]
        if len(buf) < offset:
            buf.extend(b"\x00" * (offset - len(buf)))
        buf[offset : offset + len(data)] = data
        self._c_writes.inc()
        return {"ok": True}

    @op("read_block", path=str, offset=int, length=int)
    def _op_read_block(self, pdu: Pdu, payload: dict) -> dict:
        buf = self.files.get(payload["path"])
        if buf is None:
            return {"ok": False, "error": "ENOENT"}
        offset = payload["offset"]
        length = payload["length"]
        self._c_reads.inc()
        return {"ok": True, "data": bytes(buf[offset : offset + length])}

    @op("stat", path=str)
    def _op_stat(self, pdu: Pdu, payload: dict) -> dict:
        buf = self.files.get(payload["path"])
        if buf is None:
            return {"ok": False, "error": "ENOENT"}
        return {"ok": True, "size": len(buf)}


class SshfsClient:
    """The FUSE-side block pump: bounded outstanding-request window."""

    def __init__(
        self,
        endpoint: Endpoint,
        server_name,
        *,
        block_size: int = 64 * 1024,
        window: int = 16,
    ):
        if window < 1:
            raise TransportError("window must be >= 1")
        self.endpoint = endpoint
        self.server_name = server_name
        self.block_size = block_size
        self.window = window

    def _pump(self, requests: list[dict]) -> Generator:
        """Issue requests keeping at most *window* outstanding; returns
        replies in order."""
        replies: list[Any] = [None] * len(requests)
        issued = 0
        inflight: list[tuple[int, Future]] = []
        while issued < len(requests) or inflight:
            while issued < len(requests) and len(inflight) < self.window:
                future = self.endpoint.rpc(
                    self.server_name, requests[issued], timeout=600.0
                )
                inflight.append((issued, future))
                issued += 1
            index, future = inflight.pop(0)
            replies[index] = yield future
        return replies

    def write_file(self, path: str, data: bytes) -> Generator:
        """Write a whole file (block-granular)."""
        requests = []
        for offset in range(0, max(len(data), 1), self.block_size):
            requests.append(
                {
                    "op": "write_block",
                    "path": path,
                    "offset": offset,
                    "data": data[offset : offset + self.block_size],
                }
            )
        replies = yield from self._pump(requests)
        for reply in replies:
            if not reply.get("ok"):
                raise TransportError(f"write failed: {reply.get('error')}")

    def read_file(self, path: str) -> Generator:
        """Read a whole file (block-granular)."""
        reply = yield self.endpoint.rpc(
            self.server_name, {"op": "stat", "path": path}, timeout=600.0
        )
        if not reply.get("ok"):
            raise RecordNotFoundError(f"stat failed: {reply.get('error')}")
        size = reply["size"]
        requests = [
            {
                "op": "read_block",
                "path": path,
                "offset": offset,
                "length": self.block_size,
            }
            for offset in range(0, max(size, 1), self.block_size)
        ]
        replies = yield from self._pump(requests)
        data = b"".join(reply["data"] for reply in replies if reply.get("ok"))
        return data[:size]
