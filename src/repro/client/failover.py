"""Client-side replica failover: riding out dead replicas (§VI, §VIII).

The GDP's RPC is connectionless — a request goes to a *name*, anycast
picks a replica — so failover is a client-library concern, not a
connection concern: when a cached route goes dead the client tells its
router (``T_ROUTE_INVALIDATE``), lets the name re-resolve through the
hierarchy, and retries against whichever replica anycast picks next,
under exponential backoff.

Two pieces live here:

- :class:`FailoverPolicy` — the retry/backoff envelope used by
  :meth:`GdpClient.failover_request`;
- :class:`Subscription` — per-capsule subscription state (last delivered
  seqno, duplicate suppression) plus :class:`SubscriptionMonitor`, the
  background process that notices a silently dead serving replica (tip
  advancing elsewhere, pushes stalled) and transparently re-subscribes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator

from repro.errors import GdpError
from repro.naming.names import GdpName
from repro.runtime.context import Periodic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.client.client import GdpClient

__all__ = ["FailoverPolicy", "Subscription", "SubscriptionMonitor"]


@dataclass(frozen=True)
class FailoverPolicy:
    """Retry envelope for anycast ops that hit routing failures.

    ``attempts`` counts total tries (1 = no failover); pauses between
    tries follow the repo-standard exponential backoff
    ``backoff_base * 2**attempt`` capped at ``backoff_max`` — long
    enough for the router's negative cache to lapse and a withdrawal or
    lease expiry to take effect before the retry re-resolves.
    """

    attempts: int = 3
    backoff_base: float = 0.5
    backoff_max: float = 4.0

    def delay(self, attempt: int) -> float:
        """Pause before retry number *attempt* (0-based)."""
        return min(self.backoff_base * (2 ** attempt), self.backoff_max)


class Subscription:
    """Live subscription state for one capsule.

    ``last_delivered`` is the highest seqno handed to the application
    callback; pushes at or below it are suppressed as duplicates, which
    is what makes re-subscribing to a second replica (whose push stream
    overlaps the first's) transparent.  ``None`` means the initial
    subscribe handshake has not resolved yet.
    """

    __slots__ = (
        "capsule",
        "callback",
        "subgrant",
        "last_delivered",
        "server",
        "_probe_delivered",
    )

    def __init__(
        self,
        capsule: GdpName,
        callback: Callable,
        *,
        subgrant: "object | None" = None,
    ):
        self.capsule = capsule
        self.callback = callback
        self.subgrant = subgrant
        self.last_delivered: int | None = None
        #: the replica whose pushes we are currently receiving
        self.server: GdpName | None = None
        self._probe_delivered = -1


class SubscriptionMonitor(Periodic):
    """Background liveness check for a client's subscriptions.

    Each tick reads the tip of every subscribed capsule (an anycast
    read, so it survives the serving replica's death and exercises the
    failover path).  A subscription is *stalled* when the tip is ahead
    of what was delivered and nothing has been delivered since the
    previous tick — i.e. siblings are appending but our replica's
    pushes stopped.  Stalled subscriptions are re-subscribed (anycast
    lands on a live replica) and the push gap is backfilled with reads.

    The cadence is :class:`~repro.runtime.context.Periodic`'s: seeded
    jitter around a nominal ``interval`` so a fleet of clients stays
    desynchronized and replays stay byte-identical.
    """

    def __init__(
        self,
        client: "GdpClient",
        interval: float = 5.0,
        *,
        jitter: float = 0.25,
        rng: random.Random | None = None,
    ):
        super().__init__(
            client.ctx,
            f"submonitor:{client.node_id}",
            interval,
            jitter=jitter,
            rng=rng,
        )
        self.client = client

    def _tick(self) -> Generator:
        for capsule, sub in list(self.client._subscriptions.items()):
            if sub.last_delivered is None:
                continue  # initial handshake still in flight
            try:
                result = yield from self.client.read_latest(
                    capsule, timeout=max(self.interval, 1.0)
                )
            except GdpError:
                continue  # capsule unreachable this tick: try later
            stalled = (
                result is not None
                and result.record.seqno > sub.last_delivered
                and sub.last_delivered == sub._probe_delivered
            )
            sub._probe_delivered = sub.last_delivered
            if not stalled:
                continue
            try:
                yield from self.client._resubscribe(capsule, sub)
            except GdpError:
                continue  # still unreachable: next tick retries
