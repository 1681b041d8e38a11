"""Typed op dispatch: decorator-registered handlers + structured errors.

Every GDP node role serves request "ops" carried in PDU payloads
(``{"op": "read_range", ...}``).  Before this layer each role invented its
own convention — ``DCServer`` resolved ``getattr(self, f"_op_{op}")``,
the baselines chained ``if op == ...``, the router ``if``/``elif``-ed on
PDU types.  Here handlers declare themselves:

.. code-block:: python

    class MyServer(Endpoint):
        @op("read_range", capsule=bytes, first=opt(int), last=opt(int))
        def _op_read_range(self, pdu, payload): ...

and dispatch is uniform: the payload is validated against the declared
field types first, unknown ops and validation failures return structured
error envelopes (``ok=False`` plus an ``error_kind`` discriminator), and
:class:`~repro.errors.GdpError` raised by a handler becomes a
``handler_error`` envelope.  Handler tables are collected per class over
the MRO, so subclasses inherit and override handlers like ordinary
methods.

Registries are namespaced: request ops live in the default ``"op"``
space; PDU-type dispatch (routers, endpoints) uses the ``"ptype"``
space via :func:`on_ptype`; the CAAPI web gateway keys HTTP-shaped
routes in an ``"http"`` space.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import GdpError

__all__ = [
    "op",
    "on_ptype",
    "handles",
    "opt",
    "OpSpec",
    "BoundOp",
    "find_handler",
    "resolve_route",
    "op_names",
    "dispatch_op",
    "unknown_op",
    "invalid_payload",
    "error_body",
]

#: error_kind discriminators in structured error envelopes
KIND_UNKNOWN_OP = "unknown_op"
KIND_INVALID_PAYLOAD = "invalid_payload"
KIND_HANDLER_ERROR = "handler_error"


class _Optional:
    """Marker wrapping a type spec for an optional payload field."""

    __slots__ = ("type",)

    def __init__(self, type_spec):
        self.type = type_spec


def opt(type_spec) -> _Optional:
    """Mark a payload field as optional (validated only when present)."""
    return _Optional(type_spec)


class OpSpec:
    """Declaration attached to a handler by :func:`handles`."""

    __slots__ = ("space", "name", "fields", "meta")

    def __init__(self, space: str, name: str, fields: dict, meta: dict):
        self.space = space
        self.name = name
        self.fields = fields
        self.meta = meta

    def validate(self, payload: Any) -> str | None:
        """Check *payload* against the declared fields; returns an error
        message, or None when the payload is acceptable."""
        if not self.fields:
            return None
        if not isinstance(payload, dict):
            return "payload is not a mapping"
        for field, spec in self.fields.items():
            optional = isinstance(spec, _Optional)
            expected = spec.type if optional else spec
            if field not in payload:
                if optional:
                    continue
                return f"missing required field {field!r}"
            if expected is object:
                continue
            value = payload[field]
            if not isinstance(value, expected):
                want = (
                    "/".join(t.__name__ for t in expected)
                    if isinstance(expected, tuple)
                    else expected.__name__
                )
                return (
                    f"field {field!r} must be {want}, "
                    f"got {type(value).__name__}"
                )
        return None

    def __repr__(self) -> str:
        return f"OpSpec({self.space}:{self.name})"


def handles(
    space: str, name: str, *, meta: dict | None = None, **fields
) -> Callable:
    """Register the decorated method as the *space* handler for *name*.

    ``fields`` maps payload field names to required types (or tuples of
    types); wrap a spec in :func:`opt` for optional fields; use
    ``object`` for presence-only checks.  ``meta`` carries arbitrary
    per-route data (e.g. the gateway's path arity).
    """

    def decorate(fn: Callable) -> Callable:
        specs = list(getattr(fn, "__op_specs__", ()))
        specs.append(OpSpec(space, name, dict(fields), dict(meta or {})))
        fn.__op_specs__ = specs
        return fn

    return decorate


def op(name: str, **fields) -> Callable:
    """Register a request-op handler (the default ``"op"`` space)."""
    return handles("op", name, **fields)


def on_ptype(name: str) -> Callable:
    """Register a PDU-type handler (the ``"ptype"`` space)."""
    return handles("ptype", name)


class BoundOp:
    """A handler resolved against a live node instance."""

    __slots__ = ("fn", "spec")

    def __init__(self, fn: Callable, spec: OpSpec):
        self.fn = fn
        self.spec = spec

    def validate(self, payload: Any) -> dict | None:
        """Typed-payload check; returns an error envelope or None."""
        message = self.spec.validate(payload)
        if message is None:
            return None
        return invalid_payload(self.spec.name, message)

    def __call__(self, *args, **kwargs):
        return self.fn(*args, **kwargs)

    def __repr__(self) -> str:
        return f"BoundOp({self.spec.space}:{self.spec.name})"


#: per-class handler tables: {cls: {space: {name: (attr_name, OpSpec)}}}
_TABLES: dict[type, dict[str, dict[str, tuple[str, OpSpec]]]] = {}


def _table(cls: type) -> dict[str, dict[str, tuple[str, OpSpec]]]:
    table = _TABLES.get(cls)
    if table is None:
        table = {}
        # Base classes first so subclass declarations win.
        for klass in reversed(cls.__mro__):
            for attr_name, attr in vars(klass).items():
                for spec in getattr(attr, "__op_specs__", ()):
                    table.setdefault(spec.space, {})[spec.name] = (
                        attr_name,
                        spec,
                    )
        _TABLES[cls] = table
    return table


def find_handler(obj: Any, name: Any, space: str = "op") -> BoundOp | None:
    """Resolve the handler for *name* on *obj* (None when unregistered).

    Resolution goes through ``getattr`` so a subclass overriding a
    decorated method body (without re-decorating) is dispatched to its
    override.
    """
    entry = _table(type(obj)).get(space, {}).get(name)
    if entry is None:
        return None
    attr_name, spec = entry
    return BoundOp(getattr(obj, attr_name), spec)


def resolve_route(
    obj: Any, method: str, segments: "list[str]", space: str = "http"
) -> "tuple[BoundOp, list[int]] | None":
    """Resolve an HTTP-shaped route against the registry.

    Routes are keyed ``"<METHOD> <leaf>"`` in the given space and
    declare their expected path arity in route metadata (``meta``);
    trailing segments become integer arguments.  Returns ``(handler,
    extra_args)``, or None when no route matches (unknown leaf or wrong
    arity).  A non-integer trailing segment raises ``ValueError`` —
    route declarations only admit integer parameters, so the caller maps
    it to a bad-request response.

    This is the single source of route schemas: gateways do not keep a
    hand-rolled copy of the route table or its arities.
    """
    if not segments:
        return None
    bound = find_handler(obj, f"{method} {segments[0]}", space)
    if bound is None:
        return None
    if len(segments) != bound.spec.meta.get("arity", len(segments)):
        return None
    return bound, [int(p) for p in segments[1:]]


def op_names(obj_or_cls: Any, space: str = "op") -> list[str]:
    """The registered handler names for a node class, sorted."""
    cls = obj_or_cls if isinstance(obj_or_cls, type) else type(obj_or_cls)
    return sorted(_table(cls).get(space, {}))


# -- structured error envelopes -------------------------------------------


def unknown_op(op_name: Any) -> dict:
    """The envelope for an unregistered op."""
    return {
        "ok": False,
        "error": f"unknown op {op_name!r}",
        "error_kind": KIND_UNKNOWN_OP,
    }


def invalid_payload(op_name: Any, message: str) -> dict:
    """The envelope for a payload failing typed validation."""
    return {
        "ok": False,
        "error": f"invalid payload for op {op_name!r}: {message}",
        "error_kind": KIND_INVALID_PAYLOAD,
    }


def error_body(exc: BaseException) -> dict:
    """The envelope for a handler that raised a :class:`GdpError`."""
    return {
        "ok": False,
        "error": f"{type(exc).__name__}: {exc}",
        "error_kind": KIND_HANDLER_ERROR,
    }


def dispatch_op(obj: Any, pdu: Any, payload: Any, space: str = "op") -> Any:
    """One-stop dispatch: resolve, validate, run, wrap errors.

    Returns the handler's result (which may be a Future), or a
    structured error envelope for unknown ops, invalid payloads, and
    handlers raising :class:`GdpError`.  Non-GDP exceptions propagate —
    they are bugs, not protocol errors.
    """
    op_name = payload.get("op") if isinstance(payload, dict) else None
    bound = find_handler(obj, op_name, space)
    if bound is None:
        return unknown_op(op_name)
    invalid = bound.validate(payload)
    if invalid is not None:
        return invalid
    try:
        return bound(pdu, payload)
    except GdpError as exc:
        return error_body(exc)
