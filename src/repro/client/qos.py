"""QoS accountability: measuring the utility provider (§II, §IV-C).

"An application developer should be able to form economic relations
with a service provider and hold them accountable if the desired
Quality of Service (QoS) is not provided" — and under the threat model,
"if a client does not receive the expected level of service ... it can
find a different service provider without compromising the security of
data."

The enabler is already in the protocol: every secure response carries
the responding server's self-certifying metadata, so a client can
*attribute* each answer (and each latency) to a specific provider even
though requests are addressed to capsule names and anycast picks the
replica.  :class:`QosTracker` aggregates those attributions into a
per-provider report; an application whose SLA is violated acts on it by
re-placing the capsule (see ``OwnerConsole.migrate_replica``).
"""

from __future__ import annotations

import statistics

from repro.naming.names import GdpName

__all__ = ["QosTracker", "ProviderStats"]


class ProviderStats:
    """Observed service quality for one provider."""

    __slots__ = ("server", "latencies", "ok_count", "error_count")

    def __init__(self, server: GdpName):
        self.server = server
        self.latencies: list[float] = []
        self.ok_count = 0
        self.error_count = 0

    @property
    def requests(self) -> int:
        """Total attributed responses."""
        return self.ok_count + self.error_count

    @property
    def mean_latency(self) -> float | None:
        """Mean response latency in seconds (None before any sample)."""
        if not self.latencies:
            return None
        return statistics.mean(self.latencies)

    @property
    def p95_latency(self) -> float | None:
        """95th-percentile response latency in seconds."""
        if not self.latencies:
            return None
        ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]

    @property
    def error_rate(self) -> float:
        """Fraction of attributed responses that were errors."""
        if not self.requests:
            return 0.0
        return self.error_count / self.requests

    def __repr__(self) -> str:
        mean = self.mean_latency
        return (
            f"ProviderStats({self.server.human()}, n={self.requests}, "
            f"mean={mean * 1000:.1f}ms, " if mean is not None else
            f"ProviderStats({self.server.human()}, n={self.requests}, "
        ) + f"errors={self.error_count})"


class QosTracker:
    """Aggregates per-provider response quality for one client.

    Attach with ``client.qos = QosTracker(clock=lambda: net.ctx.now)``;
    the client feeds it from the secure-response path (attribution comes
    from the authenticated ``server_metadata`` in each response — an
    on-path adversary cannot shift blame to an honest provider, §III-D).
    """

    def __init__(self, clock=None):
        self._clock = clock or (lambda: 0.0)
        self.providers: dict[GdpName, ProviderStats] = {}
        self._request_started: dict[int, float] = {}
        self.timeouts = 0

    # -- hooks called by GdpClient -----------------------------------------

    def request_sent(self, corr_id: int) -> None:
        """Record the start time of a request."""
        self._request_started[corr_id] = self._clock()

    def response_attributed(
        self, corr_id: int, server: GdpName, ok: bool
    ) -> None:
        """Record an authenticated response from *server*."""
        stats = self.providers.setdefault(server, ProviderStats(server))
        started = self._request_started.pop(corr_id, None)
        if started is not None:
            stats.latencies.append(self._clock() - started)
        if ok:
            stats.ok_count += 1
        else:
            stats.error_count += 1

    def request_timed_out(self, corr_id: int) -> None:
        """Record an unanswered request (no attribution possible)."""
        self._request_started.pop(corr_id, None)
        self.timeouts += 1

    # -- reporting -------------------------------------------------------------

    def report(self) -> dict[GdpName, ProviderStats]:
        """Per-provider statistics collected so far."""
        return dict(self.providers)

    def violators(
        self,
        *,
        max_mean_latency: float | None = None,
        max_error_rate: float | None = None,
        min_requests: int = 1,
    ) -> list[ProviderStats]:
        """Providers breaching the given SLA thresholds — the input to a
        re-placement decision."""
        out = []
        for stats in self.providers.values():
            if stats.requests < min_requests:
                continue
            breached = False
            if (
                max_mean_latency is not None
                and stats.mean_latency is not None
                and stats.mean_latency > max_mean_latency
            ):
                breached = True
            if (
                max_error_rate is not None
                and stats.error_rate > max_error_rate
            ):
                breached = True
            if breached:
                out.append(stats)
        return sorted(out, key=lambda s: s.server.raw)
