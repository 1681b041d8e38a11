"""The metrics plane: uniform named counters/histograms per node.

Every role counts through one :class:`MetricsRegistry`: instruments
are named ``<subsystem>.<event>`` (``router.forwarded``,
``server.appends``, ``net.bytes``) and scoped by node, so a benchmark or
the ``repro stats`` CLI can snapshot the whole network uniformly.  Each
node, link and lookup service keeps its scope as ``self.metrics``.

Instruments are plain objects with an ``inc``/``observe`` hot path (no
locks — the simulator is single-threaded and deterministic).  A registry
constructed with ``enabled=False`` hands out shared no-op instruments,
so metrics can be compiled out of a hot loop without touching call
sites.
"""

from __future__ import annotations

import math

__all__ = ["Counter", "Histogram", "NodeMetrics", "MetricsRegistry", "NULL"]


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add *n* (default 1)."""
        self.value += n

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


#: histogram buckets per power of two (a bucket spans at most 1/8 of
#: its lower edge); values <= 0 share one bucket, edge 0.0
SUB_BUCKETS = 8
_NONPOSITIVE = (0.5, -2048)  # (mantissa, exponent): ldexp underflows to 0.0


class Histogram:
    """A named value distribution: count / total / min / max, and
    log-bucketed counts for :meth:`quantile`."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.reset()

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        mantissa, exponent = math.frexp(value) if value > 0 else _NONPOSITIVE
        key = exponent * SUB_BUCKETS + int((mantissa - 0.5) * 2 * SUB_BUCKETS)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def quantile(self, q: float) -> float | None:
        """The upper edge of the bucket holding the *q*-quantile
        observation (None when empty): never below the exact quantile,
        and above it by less than one bucket's width."""
        if not self.count:
            return None
        rank = max(1, math.ceil(q * self.count))
        for key in sorted(self.buckets):
            rank -= self.buckets[key]
            if rank <= 0:
                break
        exponent, sub = divmod(key, SUB_BUCKETS)
        return math.ldexp(0.5 + (sub + 1) / (2 * SUB_BUCKETS), exponent)

    def reset(self) -> None:
        """Forget all observations."""
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets: dict[int, int] = {}

    @property
    def mean(self) -> float:
        """The mean observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        """Snapshot form: count/total/mean/min/max."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


class _NullInstrument:
    """Shared no-op stand-in when a registry is disabled."""

    __slots__ = ()
    name = "<disabled>"
    value = 0
    count = 0
    total = 0.0
    min = None
    max = None
    mean = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> None:
        return None

    def reset(self) -> None:
        pass

    def summary(self) -> dict:
        return {"count": 0, "total": 0.0, "mean": 0.0, "min": None, "max": None}


NULL = _NullInstrument()


class NodeMetrics:
    """One node's scoped view into a :class:`MetricsRegistry`.

    ``metrics.counter("router.forwarded")`` creates-or-returns the
    counter registered under ``(scope, name)``.
    """

    __slots__ = ("registry", "scope")

    def __init__(self, registry: "MetricsRegistry", scope: str):
        self.registry = registry
        self.scope = scope

    def counter(self, name: str) -> Counter:
        """The scoped counter *name* (created on first use)."""
        return self.registry.counter(self.scope, name)

    def histogram(self, name: str) -> Histogram:
        """The scoped histogram *name* (created on first use)."""
        return self.registry.histogram(self.scope, name)

    def snapshot(self) -> dict:
        """This scope's slice of the registry snapshot."""
        return self.registry.snapshot().get(self.scope, {})

    def __repr__(self) -> str:
        return f"NodeMetrics({self.scope!r})"


class MetricsRegistry:
    """All instruments for one simulated world, keyed (scope, name)."""

    __slots__ = ("enabled", "_counters", "_histograms", "_views")

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._counters: dict[tuple[str, str], Counter] = {}
        self._histograms: dict[tuple[str, str], Histogram] = {}
        self._views: dict[str, NodeMetrics] = {}

    def node(self, scope: str) -> NodeMetrics:
        """The scoped view for *scope* (typically a node id)."""
        view = self._views.get(scope)
        if view is None:
            view = self._views[scope] = NodeMetrics(self, scope)
        return view

    def counter(self, scope: str, name: str) -> Counter:
        """The counter registered under ``(scope, name)``."""
        if not self.enabled:
            return NULL  # type: ignore[return-value]
        key = (scope, name)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(name)
        return counter

    def histogram(self, scope: str, name: str) -> Histogram:
        """The histogram registered under ``(scope, name)``."""
        if not self.enabled:
            return NULL  # type: ignore[return-value]
        key = (scope, name)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(name)
        return histogram

    def snapshot(self) -> dict:
        """``{scope: {name: value}}``, deterministically sorted.

        Counters snapshot to their integer value, histograms to their
        summary dict.
        """
        out: dict[str, dict] = {}
        for (scope, name), counter in sorted(self._counters.items()):
            out.setdefault(scope, {})[name] = counter.value
        for (scope, name), histogram in sorted(self._histograms.items()):
            out.setdefault(scope, {})[name] = histogram.summary()
        return {scope: out[scope] for scope in sorted(out)}

    def reset(self) -> None:
        """Zero every registered instrument (registrations survive)."""
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(enabled={self.enabled}, "
            f"instruments={len(self)})"
        )
