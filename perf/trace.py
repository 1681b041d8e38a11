"""Spans recorded from ``perf/`` only, around each layer's public calls.

``--trace 1`` installs wrappers before any node is built: methods are
wrapped on their classes; module-level functions are rebound in every
``repro.*`` module whose globals alias them (``from x import f``).  A
span is one synchronous call — name, start, end, parent (a stack: one
thread), op id — and a layer's *self* time is its spans' duration minus
the part their child spans cover, accumulated as spans close.  Client
calls are generators: each resumed segment is one span.

Three dynamic wrappers attribute what no fixed name covers, by the class
that owns the callee: scheduler callbacks (``RuntimeContext.schedule``),
op/ptype handlers (``BoundOp.__call__``) and node ``handle_message``.

Spans are kept in memory and written only when the run ends
(``--spans``); counts live beside them so ratios are measured where the
work happens.  End-to-end numbers never come from a traced round: rounds
alternate recording off / on, and the off rounds are the baseline of
``tracing.overhead_ratio`` (wrappers stay installed but short-circuit).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import repro.capsule.proofs as proofs
import repro.crypto.cache as crypto_cache
import repro.crypto.hashing as hashing
import repro.encoding as encoding
import repro.runtime.dispatch as dispatch
import repro.server.secure as secure
from repro.baselines.s3sim import DirectoryObjectTier
from repro.capsule.reader import VerifyingReader
from repro.capsule.writer import CapsuleWriter
from repro.client import ClientWriter, GdpClient
from repro.crypto.keys import SigningKey, VerifyingKey
from repro.routing.endpoint import Endpoint
from repro.routing.fib import CompactFib
from repro.routing.glookup import GLookupService
from repro.routing.pdu import Pdu
from repro.routing.router import GdpRouter
from repro.runtime.context import AsyncioContext
from repro.runtime.transport import (
    AsyncioTransport,
    LocalChannel,
    SimTransport,
    SocketChannel,
    Transport,
)
from repro.server.segmented import SegmentedStore
from repro.sim.engine import Simulator

from perf import harness

#: owner module -> span name of its callbacks and handlers
OWNER_LAYERS = {
    "repro.routing.router": "routing.router",
    "repro.server.dcserver": "server.dcserver",
    "repro.caapi.commit_service": "caapi.commit",
    "repro.client.client": "client",
    "repro.runtime.context": "runtime.process",
    "repro.runtime.transport": "runtime.transport.recv",
    "repro.sim.net": "sim.net",
}
REMOTE_SUFFIX = ".remote"


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self, keep_spans: bool = False):
        #: round-level switch (the harness alternates it)
        self.recording = False
        #: recording *and* inside a timed chunk
        self.active = False
        #: id of the op in flight (one op in flight: the last started)
        self.op = 0
        self.keep_spans = keep_spans
        #: (name, start, end, parent name or None, op id)
        self.spans: list[tuple] = []
        #: nodes whose spans get the ``.remote`` suffix (replica peers)
        self.remote: set[int] = set()
        self._stack: list[list] = []
        self._totals: dict[str, list] = {}
        self._owner_names: dict[type, str] = {}
        self._counters0: dict[str, int] = {}
        self._restore: list[tuple] = []

    # -- span plumbing -------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, size: int = 0) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, child, start = frame
        duration = end - start
        total = self._totals.get(name)
        if total is None:
            # calls, self s, inclusive s, max inclusive s, size
            total = self._totals[name] = [0, 0.0, 0.0, 0.0, 0]
        total[0] += 1
        total[1] += duration - child
        total[2] += duration
        if duration > total[3]:
            total[3] = duration
        total[4] += size
        if stack:
            stack[-1][1] += duration
        else:
            root = self._totals.setdefault("<root>", [0, 0.0, 0.0, 0.0, 0])
            root[1] += duration
        if self.keep_spans:
            parent = stack[-1][0] if stack else None
            self.spans.append((name, start, end, parent, self.op))

    def resume(self) -> None:
        """A timed chunk begins."""
        if self.recording:
            self._totals = {}
            self._counters0 = crypto_cache.counters()
            self.active = True

    def pause(self) -> dict:
        """A timed chunk ended: returns ``name -> (calls, self_s)``-style
        totals for it (counter deltas ride along as ``counter:*``)."""
        if not self.active:
            return {}
        self.active = False
        out = {name: tuple(total) for name, total in self._totals.items()}
        for key, value in crypto_cache.counters().items():
            out[f"counter:{key}"] = (value - self._counters0[key], 0.0, 0.0, 0.0, 0)
        self._totals = {}
        return out

    # -- wrappers --------------------------------------------------------------

    def traced(self, name: str, fn, size_of=None):
        """A plain call, one span named *name*; ``size_of(result)``
        feeds the name's size counter."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            size = 0
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    size = size_of(result)
                return result
            finally:
                tracer._exit(frame, size)

        return functools.wraps(fn)(wrapper)

    def traced_generator(self, name: str, fn):
        """A generator call: every resumed segment is one span; the
        time from first resume to completion is kept as the inclusive
        time of ``<name>.whole``."""
        tracer = self

        def wrapper(*args, **kwargs):
            generator = fn(*args, **kwargs)
            began = time.perf_counter()
            value, error = None, None
            while True:
                frame = tracer._enter(name) if tracer.active else None
                try:
                    if error is not None:
                        yielded = generator.throw(error)
                    else:
                        yielded = generator.send(value)
                except StopIteration as stop:
                    if frame is not None:
                        tracer._exit(frame)
                        whole = tracer._totals.setdefault(
                            name + ".whole", [0, 0.0, 0.0, 0.0, 0]
                        )
                        whole[0] += 1
                        whole[2] += time.perf_counter() - began
                    return stop.value
                except BaseException:
                    if frame is not None:
                        tracer._exit(frame)
                    raise
                if frame is not None:
                    tracer._exit(frame)
                value, error = None, None
                try:
                    value = yield yielded
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 — forwarded
                    error = exc

        return functools.wraps(fn)(wrapper)

    def _owner_name(self, owner) -> str:
        cls = type(owner)
        name = self._owner_names.get(cls)
        if name is None:
            name = "other"
            for base in cls.__mro__:
                if base.__module__ in OWNER_LAYERS:
                    name = OWNER_LAYERS[base.__module__]
                    break
            self._owner_names[cls] = name
        if id(owner) in self.remote:
            return name + REMOTE_SUFFIX
        return name

    def traced_by_owner(self, fn, owner_of, size: int = 0):
        """A call whose span is named after the class owning the callee
        (``owner_of(*args)`` finds the owner); each call adds *size* to
        the name's size counter."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(tracer._owner_name(owner_of(*args)))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, size)

        return functools.wraps(fn)(wrapper)

    def _traced_schedule(self, schedule):
        """``ctx.schedule(delay, fn, *args)``: the callback runs in a
        span named after the object it is bound to."""
        tracer = self

        def wrapper(ctx, delay, fn, *args):
            if not tracer.active:
                return schedule(ctx, delay, fn, *args)
            owner = getattr(fn, "__self__", None)

            def callback(*cb_args):
                if not tracer.active:
                    return fn(*cb_args)
                frame = tracer._enter(tracer._owner_name(owner))
                try:
                    return fn(*cb_args)
                finally:
                    tracer._exit(frame)

            return schedule(ctx, delay, callback, *args)

        return functools.wraps(schedule)(wrapper)

    # -- installation ------------------------------------------------------------

    def _set(self, holder, attr: str, value) -> None:
        self._restore.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def wrap_method(self, cls, attr: str, name: str, *, generator=False, size_of=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.traced(name, raw.__func__, size_of))
        elif generator:
            wrapped = self.traced_generator(name, raw)
        else:
            wrapped = self.traced(name, raw, size_of)
        self._set(cls, attr, wrapped)

    def wrap_function(self, module, attr: str, name: str, size_of=None):
        """Wrap a module-level function and rebind every ``repro.*``
        module global that aliases it."""
        original = getattr(module, attr)
        wrapped = self.traced(name, original, size_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary (before any node is constructed:
        nodes bind ``handle_message`` into their transport at birth)."""
        self.wrap_method(SigningKey, "sign", "crypto.sign")
        self.wrap_method(VerifyingKey, "verify", "crypto.verify")
        self.wrap_function(hashing, "sha256", "crypto.hash")
        self.wrap_function(hashing, "hash_value", "crypto.hash")
        self.wrap_function(encoding, "encode", "encoding.encode", size_of=len)
        self.wrap_function(encoding, "decode", "encoding.decode")
        self.wrap_method(CapsuleWriter, "append", "capsule.writer")
        self.wrap_method(CapsuleWriter, "append_batch", "capsule.writer")
        self.wrap_function(
            proofs, "build_position_proof", "capsule.proofs.build",
            size_of=lambda proof: len(proof.headers),
        )
        self.wrap_function(
            proofs, "build_range_proof", "capsule.proofs.build",
            size_of=lambda proof: len(proof.position.headers),
        )
        self.wrap_method(VerifyingReader, "accept_record", "capsule.proofs.verify")
        self.wrap_method(VerifyingReader, "accept_range", "capsule.proofs.verify")
        self.wrap_method(ClientWriter, "append", "client.write", generator=True)
        self.wrap_method(ClientWriter, "append_stream", "client.write", generator=True)
        self.wrap_method(GdpClient, "read", "client.read", generator=True)
        self.wrap_method(GdpClient, "read_range", "client.read", generator=True)
        for cls in (AsyncioTransport, SimTransport):
            self.wrap_method(cls, "send", "runtime.transport.send")
        for cls in (SocketChannel, LocalChannel):
            self.wrap_method(cls, "send_pdu", "runtime.transport.send")
        self.wrap_method(Pdu, "encode_wire", "runtime.transport.send", size_of=len)
        # size counter = PDUs delivered
        self.wrap_method(
            Transport, "deliver", "runtime.transport.recv", size_of=lambda _: 1
        )
        self.wrap_method(Pdu, "decode_wire", "runtime.transport.recv")
        self.wrap_function(dispatch, "dispatch_op", "runtime.dispatch")
        self.wrap_function(secure, "sign_response", "server.secure.sign")
        self.wrap_function(secure, "verify_signed_response", "server.secure.verify")
        self.wrap_method(SegmentedStore, "append_entries", "server.segmented.append")
        self.wrap_method(DirectoryObjectTier, "put", "server.segmented.tier_put")
        self.wrap_method(GLookupService, "register", "routing.glookup.register")
        self.wrap_method(GLookupService, "lookup", "routing.glookup.lookup")
        self.wrap_method(
            GLookupService, "purge_expired", "routing.glookup.purge", size_of=int
        )
        self.wrap_method(CompactFib, "__setitem__", "routing.fib.set")
        self.wrap_method(CompactFib, "get", "routing.fib.get")
        self.wrap_method(CompactFib, "purge_expired", "routing.fib.purge", size_of=int)
        self._set(os, "fsync", self.traced("server.segmented.fsync", os.fsync))
        # dynamic names: callbacks, handlers and inbound messages belong
        # to the class that owns them
        for ctx_cls in (AsyncioContext, Simulator):
            self._set(
                ctx_cls, "schedule", self._traced_schedule(ctx_cls.__dict__["schedule"])
            )
        self._set(
            dispatch.BoundOp, "__call__",
            self.traced_by_owner(
                dispatch.BoundOp.__dict__["__call__"],
                lambda bound, *args: getattr(bound.fn, "__self__", None),
            ),
        )
        for cls in (GdpRouter, Endpoint):
            self._set(
                cls, "handle_message",
                # size counter = messages the node handled
                self.traced_by_owner(
                    cls.__dict__["handle_message"], lambda node, *args: node, size=1
                ),
            )

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def write_spans(self, path: str) -> None:
        """Dump the kept spans, one JSON array per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


# -- per-layer metrics ---------------------------------------------------------

#: (metric, unit, better) — BENCHMARK.json's ``per_layer`` list, in order
LAYER_METRICS = (
    ("crypto.sign.calls_per_op", "count", "lower"),
    ("crypto.sign.self_ms_per_op", "ms", "lower"),
    ("crypto.verify.calls_per_op", "count", "lower"),
    ("crypto.verify.self_ms_per_op", "ms", "lower"),
    ("crypto.verify.memo_hit_ratio", "ratio", "higher"),
    ("crypto.hash.self_ms_per_op", "ms", "lower"),
    ("encoding.encode.calls_per_op", "count", "lower"),
    ("encoding.encode.self_ms_per_op", "ms", "lower"),
    ("encoding.encode.bytes_per_user_byte", "B/B", "lower"),
    ("encoding.decode.calls_per_op", "count", "lower"),
    ("encoding.decode.self_ms_per_op", "ms", "lower"),
    ("capsule.writer.self_ms_per_op", "ms", "lower"),
    ("capsule.proofs.build_self_ms_per_op", "ms", "lower"),
    ("capsule.proofs.verify_self_ms_per_op", "ms", "lower"),
    ("capsule.proofs.records_per_proof", "count", "lower"),
    ("client.self_ms_per_op", "ms", "lower"),
    ("client.write_ms_per_op", "ms", "lower"),
    ("client.read_ms_per_op", "ms", "lower"),
    ("client.p99_ms", "ms", "lower"),
    ("client.p99_samples", "count", "higher"),
    ("runtime.transport.pdus_per_op", "count", "lower"),
    ("runtime.transport.wire_bytes_per_user_byte", "B/B", "lower"),
    ("runtime.transport.send_self_ms_per_op", "ms", "lower"),
    ("runtime.transport.recv_self_ms_per_op", "ms", "lower"),
    ("runtime.dispatch.self_ms_per_op", "ms", "lower"),
    ("runtime.loop.idle_ms_per_op", "ms", "lower"),
    ("routing.router.forwards_per_op", "count", "lower"),
    ("routing.router.self_ms_per_op", "ms", "lower"),
    ("routing.glookup.register_us", "us", "lower"),
    ("routing.glookup.lookup_us", "us", "lower"),
    ("routing.glookup.purge_us_per_name", "us", "lower"),
    ("routing.fib.set_us", "us", "lower"),
    ("routing.fib.get_us", "us", "lower"),
    ("routing.fib.purge_us_per_name", "us", "lower"),
    ("routing.tables.bytes_per_name", "B", "lower"),
    ("routing.prefill.names_per_s", "1/s", "higher"),
    ("routing.prefill.last_decile_names_per_s", "1/s", "higher"),
    ("server.dcserver.self_ms_per_op", "ms", "lower"),
    ("server.secure.responses_signed_per_op", "count", "lower"),
    ("server.replication.remote_self_ms_per_op", "ms", "lower"),
    ("server.segmented.append_self_ms_per_op", "ms", "lower"),
    ("server.segmented.max_append_ms", "ms", "lower"),
    ("server.segmented.fsyncs_per_op", "count", "lower"),
    ("server.segmented.fsync_ms_per_op", "ms", "lower"),
    ("server.segmented.bytes_written_per_user_byte", "B/B", "lower"),
    ("server.segmented.seals", "count", "lower"),
    ("server.segmented.tier_bytes_put", "B", "lower"),
    ("caapi.commit.conflicts_per_commit", "ratio", "lower"),
    ("caapi.commit.shard_self_ms_per_commit", "ms", "lower"),
    ("caapi.commit.sim_p90_ms", "ms", "lower"),
    ("process.unattributed_ms_per_op", "ms", "lower"),
    ("process.gc_collections_per_kop", "count", "lower"),
    ("tracing.overhead_ratio", "ratio", "lower"),
)

_ZERO = (0, 0.0, 0.0, 0.0, 0)
_CALLS, _SELF, _WHOLE, _MAX, _SIZE = range(5)


class _Layers:
    """Median-of-traced-rounds views over the per-round span totals."""

    def __init__(self, rounds):
        self.traced = [r for r in rounds if r.traced]
        self.baseline = [r for r in rounds if not r.traced]

    def per_op(self, name: str, field: int, scale: float = 1.0) -> float:
        return harness.median(
            r.layers.get(name, _ZERO)[field] * scale / r.ops for r in self.traced
        )

    def self_ms_per_op(self, *names: str) -> float:
        return sum(self.per_op(name, _SELF, 1e3) for name in names)

    def total(self, name: str, field: int) -> float:
        return sum(r.layers.get(name, _ZERO)[field] for r in self.traced)

    def us_per(self, name: str, per_field: int) -> float:
        """Self microseconds per call (or per unit of the size counter)."""
        units = self.total(name, per_field)
        return self.total(name, _SELF) * 1e6 / units if units else 0.0


def layer_metrics(workload, rounds, gc_delta: int) -> tuple[dict, list]:
    """Every per-layer metric for one traced run, plus the trace
    self-checks as ``(description, passed)`` pairs."""
    layers = _Layers(rounds)
    extras = workload.extras()
    ops = sum(r.ops for r in rounds)
    user_bytes_per_op = workload.user_bytes_per_op
    clock = workload.clock

    def per_user_byte(name: str) -> float:
        if not user_bytes_per_op:
            return 0.0
        return layers.per_op(name, _SIZE) / user_bytes_per_op

    verify_real = layers.total("counter:crypto.verify", _CALLS)
    verify_memo = layers.total("counter:crypto.verify_cached", _CALLS)
    all_latencies = [lat for r in rounds for lat in r.latencies]
    builds = layers.total("capsule.proofs.build", _CALLS)
    values = {
        "crypto.sign.calls_per_op": layers.per_op("crypto.sign", _CALLS),
        "crypto.sign.self_ms_per_op": layers.self_ms_per_op("crypto.sign"),
        "crypto.verify.calls_per_op": layers.per_op("crypto.verify", _CALLS),
        "crypto.verify.self_ms_per_op": layers.self_ms_per_op("crypto.verify"),
        "crypto.verify.memo_hit_ratio": (
            verify_memo / (verify_real + verify_memo) if verify_real + verify_memo else 0.0
        ),
        "crypto.hash.self_ms_per_op": layers.self_ms_per_op("crypto.hash"),
        "encoding.encode.calls_per_op": layers.per_op("encoding.encode", _CALLS),
        "encoding.encode.self_ms_per_op": layers.self_ms_per_op("encoding.encode"),
        "encoding.encode.bytes_per_user_byte": per_user_byte("encoding.encode"),
        "encoding.decode.calls_per_op": layers.per_op("encoding.decode", _CALLS),
        "encoding.decode.self_ms_per_op": layers.self_ms_per_op("encoding.decode"),
        "capsule.writer.self_ms_per_op": layers.self_ms_per_op("capsule.writer"),
        "capsule.proofs.build_self_ms_per_op": layers.self_ms_per_op(
            "capsule.proofs.build"
        ),
        "capsule.proofs.verify_self_ms_per_op": layers.self_ms_per_op(
            "capsule.proofs.verify"
        ),
        "capsule.proofs.records_per_proof": (
            layers.total("capsule.proofs.build", _SIZE) / builds if builds else 0.0
        ),
        "client.self_ms_per_op": layers.self_ms_per_op(
            "client.write", "client.read", "client"
        ),
        "client.write_ms_per_op": layers.per_op("client.write.whole", _WHOLE, 1e3),
        "client.read_ms_per_op": layers.per_op("client.read.whole", _WHOLE, 1e3),
        "client.p99_ms": harness.percentile(all_latencies, 0.99) * 1e3,
        "client.p99_samples": len(all_latencies),
        "runtime.transport.pdus_per_op": layers.per_op("runtime.transport.recv", _SIZE),
        "runtime.transport.wire_bytes_per_user_byte": per_user_byte(
            "runtime.transport.send"
        ),
        "runtime.transport.send_self_ms_per_op": layers.self_ms_per_op(
            "runtime.transport.send"
        ),
        "runtime.transport.recv_self_ms_per_op": layers.self_ms_per_op(
            "runtime.transport.recv"
        ),
        "runtime.dispatch.self_ms_per_op": layers.self_ms_per_op("runtime.dispatch"),
        "runtime.loop.idle_ms_per_op": harness.median(
            (r.wall - r.cpu) / r.ops for r in layers.baseline
        ) * 1e3,
        "routing.router.forwards_per_op": layers.per_op("routing.router", _SIZE),
        "routing.router.self_ms_per_op": layers.self_ms_per_op("routing.router"),
        "routing.glookup.register_us": layers.us_per("routing.glookup.register", _CALLS),
        "routing.glookup.lookup_us": layers.us_per("routing.glookup.lookup", _CALLS),
        "routing.glookup.purge_us_per_name": layers.us_per("routing.glookup.purge", _SIZE),
        "routing.fib.set_us": layers.us_per("routing.fib.set", _CALLS),
        "routing.fib.get_us": layers.us_per("routing.fib.get", _CALLS),
        "routing.fib.purge_us_per_name": layers.us_per("routing.fib.purge", _SIZE),
        "routing.tables.bytes_per_name": extras.get("tables_bytes_per_name", 0.0),
        "routing.prefill.names_per_s": extras.get("prefill_names_per_s", 0.0),
        "routing.prefill.last_decile_names_per_s": extras.get(
            "prefill_last_decile_names_per_s", 0.0
        ),
        "server.dcserver.self_ms_per_op": layers.self_ms_per_op("server.dcserver"),
        "server.secure.responses_signed_per_op": layers.per_op(
            "server.secure.sign", _CALLS
        ),
        "server.replication.remote_self_ms_per_op": layers.self_ms_per_op(
            "server.dcserver" + REMOTE_SUFFIX
        ),
        "server.segmented.append_self_ms_per_op": layers.self_ms_per_op(
            "server.segmented.append"
        ),
        "server.segmented.max_append_ms": max(
            (r.layers.get("server.segmented.append", _ZERO)[_MAX] for r in layers.traced),
            default=0.0,
        ) * 1e3,
        "server.segmented.fsyncs_per_op": layers.per_op("server.segmented.fsync", _CALLS),
        "server.segmented.fsync_ms_per_op": layers.self_ms_per_op(
            "server.segmented.fsync"
        ),
        "server.segmented.bytes_written_per_user_byte": (
            (extras.get("segment_bytes", 0) + extras.get("tier_bytes_put", 0))
            / workload.user_bytes
        ),
        "server.segmented.seals": extras.get("seals", 0),
        "server.segmented.tier_bytes_put": extras.get("tier_bytes_put", 0),
        "caapi.commit.conflicts_per_commit": extras.get("conflicts_per_commit", 0.0),
        "caapi.commit.shard_self_ms_per_commit": layers.self_ms_per_op("caapi.commit"),
        "caapi.commit.sim_p90_ms": (
            harness.percentile(all_latencies, 0.90) * 1e3 if clock == "simulated" else 0.0
        ),
        "process.unattributed_ms_per_op": harness.median(
            (r.cpu_norm - r.layers.get("<root>", _ZERO)[_SELF]) / r.ops
            for r in layers.traced
        ) * 1e3,
        "process.gc_collections_per_kop": gc_delta * 1000.0 / ops,
        "tracing.overhead_ratio": harness.median(
            r.cpu_ms_per_op() for r in layers.traced
        ) / harness.median(r.cpu_ms_per_op() for r in layers.baseline),
    }
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS
    }

    coverage = harness.median(
        r.layers.get("<root>", _ZERO)[_SELF] / r.cpu_norm for r in layers.traced
    )
    checks = [
        (
            "crypto.sign spans == crypto.cache sign counter",
            layers.total("crypto.sign", _CALLS)
            == layers.total("counter:crypto.sign", _CALLS),
        ),
        (
            "crypto.verify spans == crypto.cache verify + verify_cached counters",
            layers.total("crypto.verify", _CALLS) == verify_real + verify_memo,
        ),
    ]
    for name in workload.expected_spans:
        checks.append((f"span {name} seen", layers.total(name, _CALLS) > 0))
    if workload.min_coverage:
        checks.append((
            f"spans cover {coverage:.3f} of CPU (>= {workload.min_coverage})",
            coverage >= workload.min_coverage,
        ))
    return metrics, checks
