"""Transports: how PDUs move between an element and its peers.

The protocol elements (endpoints, routers) never touch links or sockets
directly; they hold a :class:`Transport` and opaque *peer* handles.  The
contract:

- ``send(peer, pdu)`` — ship one PDU toward *peer* (raises
  :class:`TransportError` when closed or unreachable,
  :class:`WireFormatError` when the PDU exceeds the frame limit);
- ``bind(on_pdu)`` — register the delivery callback
  ``on_pdu(pdu, peer)``; *peer* is identity-stable per connection, so
  protocol state keyed on it (router attachments, pending challenges)
  works the same over simulated links and TCP connections;
- ``close()`` — tear the transport down; further sends raise.

Counters (plain ints — they must never perturb simulation determinism):
``sent``, ``delivered``, ``backpressure`` (sends that queued behind a
busy line or a paused socket buffer), ``oversized`` (frames rejected by
the size limit).

Implementations:

- :class:`SimTransport` — wraps the simulator's link layer; peers are
  adjacent :class:`~repro.runtime.network.Node` objects.
- :class:`AsyncioTransport` — speaks length-prefixed binary PDU frames
  over TCP via asyncio; peers are :class:`SocketChannel` connections
  (or in-process :class:`LocalChannel` pairs for co-located elements).
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from repro.errors import TransportError, WireFormatError
from repro.routing.pdu import Pdu

__all__ = [
    "Transport",
    "SimTransport",
    "AsyncioTransport",
    "SocketChannel",
    "LocalChannel",
    "local_pair",
    "DEFAULT_MAX_FRAME",
    "FRAME_PDU",
    "FRAME_BANNER",
]

#: frame length prefix: u32 big-endian byte count of the body
_LEN_STRUCT = struct.Struct(">I")

#: body type tags (first body byte)
FRAME_PDU = 0x01
FRAME_BANNER = 0x02

#: default ceiling on one frame body (a 16 MiB PDU is a bug, not a load)
DEFAULT_MAX_FRAME = 16 * 1024 * 1024


class Transport:
    """Base transport: counters plus the send/deliver/close contract."""

    def __init__(self, *, max_frame: int = DEFAULT_MAX_FRAME):
        self.max_frame = max_frame
        self.closed = False
        self.on_pdu: Callable[[Pdu, Any], None] | None = None
        #: PDUs accepted for transmission
        self.sent = 0
        #: PDUs handed to the bound element
        self.delivered = 0
        #: sends that queued behind a busy line / paused write buffer
        self.backpressure = 0
        #: frames rejected by the size limit (either direction)
        self.oversized = 0

    def bind(self, on_pdu: Callable[[Pdu, Any], None]) -> "Transport":
        """Register the delivery callback ``on_pdu(pdu, peer)``."""
        self.on_pdu = on_pdu
        return self

    def send(self, peer: Any, pdu: Pdu) -> None:
        """Ship *pdu* toward *peer*."""
        raise NotImplementedError

    def deliver(self, pdu: Pdu, peer: Any) -> None:
        """Hand an arrived PDU to the bound element."""
        self.delivered += 1
        if self.on_pdu is not None:
            self.on_pdu(pdu, peer)

    def close(self) -> None:
        """Tear down; subsequent sends raise :class:`TransportError`."""
        self.closed = True

    def _check_send(self, pdu: Pdu) -> None:
        if self.closed:
            raise TransportError("transport is closed")
        if pdu.size_bytes > self.max_frame:
            self.oversized += 1
            raise WireFormatError(
                f"PDU of {pdu.size_bytes} bytes exceeds frame limit "
                f"{self.max_frame}"
            )


class SimTransport(Transport):
    """Transport over the simulated link layer.

    Peers are adjacent :class:`~repro.runtime.network.Node` objects; ``send``
    charges the duplex link for the PDU's wire size and ships
    :meth:`~repro.routing.pdu.Pdu.shipped`, a copy holding only its
    payload bytes, so every receiver decodes its own copy, as over TCP.
    """

    def __init__(self, node, *, max_frame: int = DEFAULT_MAX_FRAME):
        super().__init__(max_frame=max_frame)
        self.node = node

    def send(self, peer: Any, pdu: Pdu) -> None:
        """Transmit over the direct link to *peer*."""
        self._check_send(pdu)
        link = self.node.link_to(peer)
        if link is None:
            raise TransportError(
                f"{self.node.node_id} has no link to "
                f"{getattr(peer, 'node_id', peer)!r}"
            )
        if link._busy_until[(self.node, peer)] > self.node.ctx.now:
            self.backpressure += 1
        self.sent += 1
        link.transmit(self.node, pdu.shipped(), pdu.size_bytes)


class LocalChannel:
    """One end of an in-process duplex pipe between two transports.

    Used in socket mode to attach co-located elements (a process's
    server to its router) without a loopback TCP hop.  Sending on one
    end schedules delivery into the other end's transport on the shared
    runtime context, so reentrancy behaves like a real transport.

    It is the one hop that hands over the PDU object, not its bytes: the
    router just decoded every inbound PDU off TCP, so shipping bytes
    here would decode each request twice.
    """

    __slots__ = ("ctx", "node_id", "closed", "_peer_end", "_peer_transport")

    def __init__(self, ctx, node_id: str):
        self.ctx = ctx
        self.node_id = node_id
        self.closed = False
        self._peer_end: "LocalChannel | None" = None
        self._peer_transport: Transport | None = None

    def send_pdu(self, pdu: Pdu) -> None:
        """Deliver *pdu* into the other end's transport (async tick)."""
        if self.closed or self._peer_end is None or self._peer_end.closed:
            raise TransportError(f"local channel {self.node_id} is closed")
        transport = self._peer_transport
        other = self._peer_end
        self.ctx.schedule(0.0, transport.deliver, pdu, other)

    def close(self) -> None:
        """Close both ends of the pipe."""
        self.closed = True
        if self._peer_end is not None:
            self._peer_end.closed = True

    def __repr__(self) -> str:
        return f"LocalChannel({self.node_id})"


def local_pair(
    ctx,
    transport_a: Transport,
    transport_b: Transport,
    label_a: str = "local_a",
    label_b: str = "local_b",
) -> tuple[LocalChannel, LocalChannel]:
    """Create an in-process duplex pipe between two transports.

    Returns ``(a_end, b_end)``: element A holds ``a_end`` as its handle
    to B (sending on it delivers into ``transport_b``, which sees the
    sender as ``b_end``), and vice versa.
    """
    a_end = LocalChannel(ctx, label_a)
    b_end = LocalChannel(ctx, label_b)
    a_end._peer_end = b_end
    a_end._peer_transport = transport_b
    b_end._peer_end = a_end
    b_end._peer_transport = transport_a
    return a_end, b_end


class SocketChannel:
    """One TCP connection carrying length-prefixed binary frames.

    Frame layout: ``u32 length`` (big-endian byte count of the body)
    then the body; the first body byte is the type tag (:data:`FRAME_PDU`
    or :data:`FRAME_BANNER`).  A banner is exchanged automatically on
    connect, carrying the element's name and metadata so the receiving
    side can label the channel before any PDU flows.
    """

    def __init__(self, transport: "AsyncioTransport", label: str):
        self.transport = transport
        self.node_id = label
        self.closed = False
        #: remote element's raw GDP name + wire metadata (from its banner)
        self.remote_name_raw: bytes | None = None
        self.remote_metadata: Any = None
        self._proto = None  # asyncio.Transport, set on connection_made
        self._buffer = bytearray()
        self._paused = False
        self._banner_seen = False

    # -- outbound ----------------------------------------------------------

    def send_pdu(self, pdu: Pdu) -> None:
        """Frame and write one PDU (never blocks; the write buffer and
        the backpressure counter absorb bursts)."""
        if self.closed or self._proto is None:
            raise TransportError(f"channel {self.node_id} is closed")
        body = pdu.encode_wire()
        if self._paused or self.transport._write_buffer_full(self._proto):
            self.transport.backpressure += 1
        self._proto.write(
            _LEN_STRUCT.pack(len(body) + 1) + bytes([FRAME_PDU]) + body
        )

    def _send_banner(self) -> None:
        from repro import encoding

        banner = encoding.encode(self.transport.banner_payload())
        self._proto.write(
            _LEN_STRUCT.pack(len(banner) + 1) + bytes([FRAME_BANNER]) + banner
        )

    # -- inbound (driven by the protocol adapter) --------------------------

    def _feed(self, data: bytes) -> None:
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _LEN_STRUCT.size:
                return
            (length,) = _LEN_STRUCT.unpack_from(self._buffer)
            if length > self.transport.max_frame + 1:
                self.transport.oversized += 1
                self.abort()
                return
            if len(self._buffer) < _LEN_STRUCT.size + length:
                return
            body = bytes(
                self._buffer[_LEN_STRUCT.size:_LEN_STRUCT.size + length]
            )
            del self._buffer[:_LEN_STRUCT.size + length]
            self._handle_frame(body)
            if self.closed:
                return

    def _handle_frame(self, body: bytes) -> None:
        if not body:
            self.transport._frame_errors += 1
            self.abort()
            return
        tag, content = body[0], body[1:]
        if tag == FRAME_BANNER:
            self._handle_banner(content)
        elif tag == FRAME_PDU:
            try:
                pdu = Pdu.decode_wire(content)
            except WireFormatError:
                self.transport._frame_errors += 1
                self.abort()
                return
            self.transport.deliver(pdu, self)
        else:
            self.transport._frame_errors += 1
            self.abort()

    def _handle_banner(self, content: bytes) -> None:
        from repro import encoding

        try:
            banner = encoding.decode(content)
            name_raw = banner["name"]
        except Exception:
            self.transport._frame_errors += 1
            self.abort()
            return
        self.remote_name_raw = name_raw
        self.remote_metadata = banner.get("metadata")
        label = banner.get("label")
        if label:
            self.node_id = f"chan:{label}"
        self._banner_seen = True
        self.transport._channel_ready(self)

    # -- lifecycle ---------------------------------------------------------

    def abort(self) -> None:
        """Hard-close the connection (protocol violation)."""
        self.closed = True
        if self._proto is not None:
            self._proto.close()

    def close(self) -> None:
        """Close the connection once buffered writes flush."""
        self.closed = True
        if self._proto is not None:
            self._proto.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"SocketChannel({self.node_id}, {state})"


class AsyncioTransport(Transport):
    """Length-prefixed binary PDU frames over TCP, on an asyncio loop.

    One transport per element; it may listen (server side), dial
    (client side), or both.  Peers handed to ``send`` are
    :class:`SocketChannel` connections or :class:`LocalChannel` ends.
    """

    #: pause_writing/high-water default (bytes) — small enough that the
    #: backpressure counter is observable under load
    WRITE_HIGH_WATER = 256 * 1024

    def __init__(
        self,
        ctx,
        *,
        label: str = "",
        name_raw: bytes = b"",
        metadata_wire: Any = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        write_high_water: int | None = None,
    ):
        super().__init__(max_frame=max_frame)
        self.ctx = ctx
        self.label = label
        self.name_raw = name_raw
        self.metadata_wire = metadata_wire
        self.write_high_water = (
            write_high_water
            if write_high_water is not None
            else self.WRITE_HIGH_WATER
        )
        self.channels: list[SocketChannel] = []
        #: called with each channel whose banner arrived (fleet wiring)
        self.on_channel: Callable[[SocketChannel], None] | None = None
        self._server = None
        self._frame_errors = 0

    # -- wiring ------------------------------------------------------------

    def banner_payload(self) -> dict:
        """The banner body announcing this element to a new peer."""
        payload: dict = {"name": self.name_raw, "label": self.label}
        if self.metadata_wire is not None:
            payload["metadata"] = self.metadata_wire
        return payload

    def _make_protocol(self):
        import asyncio

        channel = SocketChannel(self, f"chan:{self.label}:pending")
        transport_self = self

        class _Protocol(asyncio.Protocol):
            def connection_made(self, proto_transport):
                proto_transport.set_write_buffer_limits(
                    high=transport_self.write_high_water
                )
                channel._proto = proto_transport
                transport_self.channels.append(channel)
                channel._send_banner()

            def data_received(self, data):
                channel._feed(data)

            def pause_writing(self):
                channel._paused = True

            def resume_writing(self):
                channel._paused = False

            def connection_lost(self, exc):
                channel.closed = True
                if channel in transport_self.channels:
                    transport_self.channels.remove(channel)

        return channel, _Protocol

    def listen(self, host: str = "127.0.0.1", port: int = 0):
        """Start accepting connections; returns ``(server, port)``
        (coroutine — await on the owning loop)."""

        async def _listen():
            def factory():
                _, protocol_cls = self._make_protocol()
                return protocol_cls()

            self._server = await self.ctx.loop.create_server(
                factory, host, port
            )
            bound_port = self._server.sockets[0].getsockname()[1]
            return self._server, bound_port

        return _listen()

    def dial(self, host: str, port: int):
        """Connect to a listening transport; returns the ready channel
        (coroutine — resolves once the remote banner arrived)."""

        async def _dial():
            import asyncio

            channel, protocol_cls = self._make_protocol()
            ready = self.ctx.loop.create_future()
            previous_hook = self.on_channel

            def on_ready(chan):
                if chan is channel and not ready.done():
                    ready.set_result(chan)
                elif previous_hook is not None:
                    previous_hook(chan)

            self.on_channel = on_ready
            try:
                await self.ctx.loop.create_connection(
                    protocol_cls, host, port
                )
                await asyncio.wait_for(ready, timeout=30.0)
            finally:
                self.on_channel = previous_hook
            return channel

        return _dial()

    def _channel_ready(self, channel: SocketChannel) -> None:
        if self.on_channel is not None:
            self.on_channel(channel)

    def _write_buffer_full(self, proto_transport) -> bool:
        try:
            return (
                proto_transport.get_write_buffer_size()
                >= self.write_high_water
            )
        except Exception:
            return False

    # -- the transport contract --------------------------------------------

    def send(self, peer: Any, pdu: Pdu) -> None:
        """Frame *pdu* and write it to the peer channel."""
        self._check_send(pdu)
        self.sent += 1
        peer.send_pdu(pdu)

    def close(self) -> None:
        """Stop listening and close every channel."""
        super().close()
        if self._server is not None:
            self._server.close()
            self._server = None
        for channel in list(self.channels):
            channel.close()
        self.channels.clear()
