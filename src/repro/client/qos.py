"""QoS accountability: measuring the utility provider (§II, §IV-C).

"An application developer should be able to form economic relations
with a service provider and hold them accountable if the desired
Quality of Service (QoS) is not provided" — and under the threat model,
"if a client does not receive the expected level of service ... it can
find a different service provider without compromising the security of
data."

Every secure response is signed by the server that answered, so a
:class:`~repro.client.client.GdpClient` *attributes* each verified reply
to its provider although anycast picked the replica: per server
``qos.<hex>.ok`` / ``qos.<hex>.errors`` counters and a
``qos.<hex>.latency`` histogram (seconds; ``quantile(0.95)`` is the
p95) in the client's metrics scope, and ``qos.timeouts`` for requests
nothing answered.  :func:`violators` reads them; an application acts on
a breach by re-placing the capsule (``OwnerConsole.migrate_replica``).
"""

from __future__ import annotations

from repro.naming.names import GdpName

__all__ = ["violators"]


def violators(
    client,
    *,
    max_mean_latency: float | None = None,
    max_error_rate: float | None = None,
    min_requests: int = 1,
) -> list[GdpName]:
    """Servers *client* attributed at least *min_requests* replies to
    that breach the given SLA thresholds, sorted by name — the input to
    a re-placement decision."""
    out = []
    for server, (ok, errors, latency) in client._providers.items():
        requests = ok.value + errors.value
        if requests < min_requests:
            continue
        if (
            max_mean_latency is not None
            and latency.count
            and latency.mean > max_mean_latency
        ) or (
            max_error_rate is not None
            and errors.value > max_error_rate * requests
        ):
            out.append(server)
    return sorted(out, key=lambda server: server.raw)
