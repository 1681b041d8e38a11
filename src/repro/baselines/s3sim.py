"""Simulated cloud object store (the Figure 8 "S3" baseline).

What matters for the case study is the *transfer-time structure* of an
object store reached over the client's residential link: a per-request
service latency (request processing + time-to-first-byte) followed by a
single-stream transfer of the whole object, bandwidth-bound by the
narrowest link on the path (the 10 Mbps uplink for writes, 100 Mbps
downlink for reads).

The store is an ordinary endpoint on the simulated network — no flat
names, no proofs, no delegations — so the comparison against GDP is
infrastructure-for-infrastructure, exactly as in §IX ("given equivalent
infrastructure, the GDP and DataCapsules provide comparable performance
to existing cloud systems (S3)").

Multipart transfer is modelled (``part_size``): real S3 clients upload
large objects in parts; each part pays the per-request overhead.
"""

from __future__ import annotations

import os
from typing import Any, Generator

from repro.crypto.keys import SigningKey
from repro.errors import RecordNotFoundError, TransportError
from repro.naming.metadata import make_server_metadata
from repro.routing.endpoint import Endpoint
from repro.routing.pdu import Pdu
from repro.runtime.dispatch import dispatch_op, op, opt
from repro.runtime.network import Network

__all__ = [
    "ObjectStoreServer",
    "ObjectStoreClient",
    "MemoryObjectTier",
    "DirectoryObjectTier",
]

#: per-request service latency (request parse + TTFB), roughly S3-like
DEFAULT_REQUEST_LATENCY = 0.030


class ObjectStoreServer(Endpoint):
    """A flat PUT/GET blob server."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        *,
        request_latency: float = DEFAULT_REQUEST_LATENCY,
    ):
        key = SigningKey.from_seed(b"s3:" + node_id.encode())
        metadata = make_server_metadata(
            key, key.public, extra={"node_id": node_id, "service": "s3sim"}
        )
        super().__init__(network, node_id, metadata, key)
        self.request_latency = request_latency
        self.objects: dict[str, bytes] = {}
        self._c_puts = self.metrics.counter("s3.puts")
        self._c_gets = self.metrics.counter("s3.gets")

    def on_request(self, pdu: Pdu) -> Any:
        """Serve one application request (see class docstring) after
        the per-request service latency, through typed op dispatch."""
        result = self.ctx.future()
        self.ctx.schedule(
            self.request_latency,
            lambda: result.resolve(dispatch_op(self, pdu, pdu.payload)),
        )
        return result

    @op("put", key=str, data=bytes, part=opt(int))
    def _op_put(self, pdu: Pdu, payload: dict) -> dict:
        parts = self.objects.get(payload["key"], b"")
        if payload.get("part", 0) == 0:
            parts = b""
        self.objects[payload["key"]] = parts + payload["data"]
        self._c_puts.inc()
        return {"ok": True}

    @op("get", key=str, offset=opt(int), length=opt(int))
    def _op_get(self, pdu: Pdu, payload: dict) -> dict:
        data = self.objects.get(payload["key"])
        if data is None:
            return {"ok": False, "error": "NoSuchKey"}
        offset = payload.get("offset", 0)
        length = payload.get("length", len(data) - offset)
        self._c_gets.inc()
        return {"ok": True, "data": data[offset : offset + length]}


class MemoryObjectTier:
    """A synchronous flat key→blob object store — the PUT/GET/DELETE
    surface of :class:`ObjectStoreServer` without the simulated network,
    so the segmented storage engine can tier cold segments through it
    inline.  Counters mirror the server's (``puts``/``gets``) plus the
    bytes moved, which the storage bench reports."""

    def __init__(self):
        self.objects: dict[str, bytes] = {}
        self.puts = 0
        self.gets = 0
        self.bytes_put = 0
        self.bytes_got = 0

    def put(self, key: str, data: bytes) -> None:
        self.objects[key] = bytes(data)
        self.puts += 1
        self.bytes_put += len(data)

    def get_range(self, key: str, start: int = 0, length: int | None = None):
        """*length* bytes (None: the rest) of an object from *start*."""
        data = self.objects.get(key)
        if data is not None:
            data = data[start : None if length is None else start + length]
            self.gets += 1
            self.bytes_got += len(data)
        return data

    get = get_range

    def delete(self, key: str) -> None:
        self.objects.pop(key, None)

    def keys(self) -> list[str]:
        return sorted(self.objects)


class DirectoryObjectTier:
    """A filesystem-backed object tier (one file per key under *root*),
    the durable stand-in for a remote object service in the torture
    suite and bench: PUTs are atomic (tmp + rename + fsync) so a crash
    mid-upload never leaves a half object — the same guarantee S3's
    single-request PUT gives."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.puts = 0
        self.gets = 0
        self.bytes_put = 0
        self.bytes_got = 0

    def _path(self, key: str) -> str:
        # Keys look like "<capsule-hex>/seg-XXXXXXXX.seg"; flatten the
        # separator so every object lives directly under root.
        return os.path.join(self.root, key.replace("/", "_"))

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self.puts += 1
        self.bytes_put += len(data)

    def get_range(self, key: str, start: int = 0, length: int | None = None):
        """*length* bytes (None: the rest) of an object from *start*."""
        try:
            fd = os.open(self._path(key), os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            size = os.fstat(fd).st_size - start if length is None else length
            data = os.pread(fd, size, start)
        finally:
            os.close(fd)
        self.gets += 1
        self.bytes_got += len(data)
        return data

    get = get_range

    def delete(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass

    def keys(self) -> list[str]:
        return sorted(
            f for f in os.listdir(self.root) if not f.endswith(".tmp")
        )


class ObjectStoreClient:
    """PUT/GET through any attached endpoint, multipart like a real SDK."""

    def __init__(
        self,
        endpoint: Endpoint,
        server_name,
        *,
        part_size: int = 8 * 1024 * 1024,
    ):
        self.endpoint = endpoint
        self.server_name = server_name
        self.part_size = part_size

    def put(self, key: str, data: bytes) -> Generator:
        """Upload an object (multipart for large blobs)."""
        for part, offset in enumerate(range(0, max(len(data), 1), self.part_size)):
            chunk = data[offset : offset + self.part_size]
            reply = yield self.endpoint.rpc(
                self.server_name,
                {"op": "put", "key": key, "data": chunk, "part": part},
                timeout=600.0,
            )
            if not reply.get("ok"):
                raise TransportError(f"PUT failed: {reply.get('error')}")

    def get(self, key: str) -> Generator:
        """Download an object (ranged GETs of part_size)."""
        data = b""
        offset = 0
        while True:
            reply = yield self.endpoint.rpc(
                self.server_name,
                {
                    "op": "get",
                    "key": key,
                    "offset": offset,
                    "length": self.part_size,
                },
                timeout=600.0,
            )
            if not reply.get("ok"):
                if offset == 0:
                    raise RecordNotFoundError(f"GET failed: {reply.get('error')}")
                break
            chunk = reply["data"]
            data += chunk
            offset += len(chunk)
            if len(chunk) < self.part_size:
                break
        return data
