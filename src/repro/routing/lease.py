"""Advertisement lease refresh: keeping routes alive on purpose.

With leases (§VII liveness), an advertisement is a *claim with an
expiry*: GLookup entries and FIB installs are capped at ``expires_at``,
so a silently dead endpoint's routes lapse on their own — no reaper, no
trust in the death being reported.  The flip side is that live endpoints
must re-advertise before their lease runs out; that is this daemon's
whole job.

The cadence is :class:`~repro.runtime.context.Periodic`'s: a nominal
interval (default: half the endpoint's lease) with seeded jitter so a
fleet of servers does not stampede its routers in lockstep, while
simtest replays stay byte-identical.
"""

from __future__ import annotations

import random
from typing import Generator

from repro.errors import GdpError
from repro.routing.endpoint import Endpoint
from repro.runtime.context import Periodic

__all__ = ["LeaseRefreshDaemon"]


class LeaseRefreshDaemon(Periodic):
    """Background process re-advertising an endpoint before its
    advertisement lease expires.

    ``interval`` defaults to half the endpoint's ``lease_ttl`` so every
    refresh lands with a comfortable margin; the jittered cadence is
    :class:`~repro.runtime.context.Periodic`'s.  Crashed endpoints
    (``endpoint.crashed`` truthy) skip their turn — their routes are
    *supposed* to lapse; ``restart()`` re-advertises explicitly.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        interval: float | None = None,
        *,
        jitter: float = 0.25,
        rng: random.Random | None = None,
    ):
        if interval is None:
            if endpoint.lease_ttl is None:
                raise GdpError(
                    "lease refresh needs an interval or an endpoint "
                    "with a lease_ttl"
                )
            interval = endpoint.lease_ttl / 2.0
        super().__init__(
            endpoint.ctx,
            f"leaserefresh:{endpoint.node_id}",
            interval,
            jitter=jitter,
            rng=rng,
        )
        self.endpoint = endpoint
        self.refreshes = 0
        self.failures = 0

    def _tick(self) -> Generator:
        if getattr(self.endpoint, "crashed", False):
            return
        try:
            # A handshake stalled by a lost PDU must not wedge the
            # daemon: abandon it and retry next tick, and bound each
            # attempt by our own period.
            self.endpoint.abandon_advertisement()
            yield self.ctx.timeout(
                self.endpoint.advertise(self.endpoint.catalog_entries()),
                max(self.interval, 1.0),
                f"lease refresh {self.endpoint.node_id}",
            )
            self.refreshes += 1
        except GdpError:
            # Rejected, unroutable, or timed out this round; the
            # next tick (well inside the remaining lease) retries
            # with a fresh HELLO.
            self.failures += 1
