"""The substrate every GDP node role is written against.

The paper's GDP is *one* substrate with many roles — DataCapsule-servers,
GDP-routers, GLookupServices, clients, gateways (§IV, §VII, §VIII).  This
package is the role-independent plumbing those nodes share; the
simulator (:mod:`repro.sim`) and ``socketnet`` are its two
implementations:

``network`` / ``context`` / ``transport``
    :class:`Network` (context, RNG, node table, metrics, node
    middlewares) and the element base :class:`Node`; the clock and
    scheduler (``RuntimeContext``, ``Future``, ``Process``, and
    ``Periodic``, every daemon's cadence); how PDUs move.

``dispatch``
    A typed op-dispatch registry: handlers declare themselves with
    ``@op("append", capsule=bytes, ...)`` and inbound payloads are
    validated before the handler runs; unknown ops and handler failures
    become structured error envelopes instead of ad-hoc strings.

``middleware``
    Per-node inbound/outbound PDU pipelines and a network delivery
    pipeline.  Metrics, tracing, and fault injection are composable
    middlewares instead of monkey-patches.

``metrics``
    A :class:`MetricsRegistry` of uniform named counters/histograms,
    scoped per node (``router.forwarded``, ``server.appends``,
    ``net.bytes``) — one counter style for the whole system.

``trace``
    An optional deterministic trace-event stream (sim-time-stamped PDU
    spans) that benchmarks and the CLI can dump; two identically-seeded
    runs produce byte-identical streams.

``faults``
    Drop/delay/corrupt/replay delivery middlewares — the adversary and
    chaos tests declare these instead of wrapping internals.
"""

from repro.runtime.dispatch import (
    BoundOp,
    OpSpec,
    dispatch_op,
    error_body,
    find_handler,
    handles,
    invalid_payload,
    on_ptype,
    op,
    op_names,
    opt,
    unknown_op,
)
from repro.runtime.faults import (
    DelayFaults,
    DropFaults,
    ReplayFaults,
    TamperFaults,
)
from repro.runtime.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    NodeMetrics,
)
from repro.runtime.middleware import (
    DROP,
    Delay,
    DeliveryMiddleware,
    DeliveryPipeline,
    MetricsMiddleware,
    NodeMiddleware,
    NodePipeline,
)
from repro.runtime.network import Network, Node
from repro.runtime.trace import TraceMiddleware, TraceStream

__all__ = [
    # network
    "Network",
    "Node",
    # dispatch
    "op",
    "on_ptype",
    "handles",
    "opt",
    "find_handler",
    "dispatch_op",
    "op_names",
    "unknown_op",
    "invalid_payload",
    "error_body",
    "OpSpec",
    "BoundOp",
    # metrics
    "MetricsRegistry",
    "NodeMetrics",
    "Counter",
    "Histogram",
    # middleware
    "DROP",
    "Delay",
    "NodeMiddleware",
    "NodePipeline",
    "DeliveryMiddleware",
    "DeliveryPipeline",
    "MetricsMiddleware",
    # trace
    "TraceStream",
    "TraceMiddleware",
    # faults
    "DropFaults",
    "TamperFaults",
    "ReplayFaults",
    "DelayFaults",
]
