"""Durability (acknowledgment) policies (§VI-B).

"In the simplest case, the writer receives a single acknowledgment from
the closest DataCapsule-server ... applications that can not tolerate
such loss, the writer can indicate that the DataCapsule-server must
collect additional acknowledgments from other replicas and return it to
the writer."

An :class:`AckPolicy` translates the writer's durability requirement
into the number of replica acknowledgments the fronting server must
collect before replying.  ``ANY`` is the paper's fast path (ack after
local persist, propagate in the background — the window where a crash
can leave a *hole*); ``ALL`` closes the window completely; ``QUORUM``
is the usual middle ground.
"""

from __future__ import annotations

from repro.errors import DurabilityError

__all__ = ["AckPolicy", "FsyncPolicy", "ANY", "QUORUM", "ALL"]


class AckPolicy:
    """How many replicas (including the fronting server) must persist an
    append before it is acknowledged to the writer."""

    def __init__(self, spec: str):
        self.spec = spec
        if spec not in ("any", "quorum", "all") and not spec.isdigit():
            raise DurabilityError(f"unknown ack policy {spec!r}")
        if spec.isdigit() and int(spec) < 1:
            raise DurabilityError("numeric ack policy must be >= 1")

    def required_acks(self, replica_count: int) -> int:
        """Acks needed given *replica_count* total replicas."""
        if replica_count < 1:
            raise DurabilityError("capsule has no replicas")
        if self.spec == "any":
            return 1
        if self.spec == "quorum":
            return replica_count // 2 + 1
        if self.spec == "all":
            return replica_count
        return min(int(self.spec), replica_count)

    def is_fast_path(self, replica_count: int) -> bool:
        """True when the local persist alone satisfies the policy —
        the §VI-B fast path (ack immediately, propagate in the
        background), shared by the single and batched append ops."""
        return self.required_acks(replica_count) <= 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AckPolicy):
            return NotImplemented
        return self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"AckPolicy({self.spec!r})"


class FsyncPolicy:
    """When appended bytes must reach the durable medium.

    The ack policy above decides *who* must persist an append before it
    is acknowledged; this decides what "persist" means on each replica:

    - ``"always"`` — fsync before every append returns (an acked record
      survives power loss; the SegmentedStore default).
    - ``"batch:N"`` — fsync once at least N bytes are pending; bounds
      the power-loss window to N bytes while amortizing the sync cost
      over a run of appends.
    - ``"drain"`` — never fsync on the append path; only an explicit
      ``StorageBackend.sync()`` (the graceful-drain lifecycle) pushes
      bytes down: the caller has batched durability elsewhere.
    """

    def __init__(self, spec: str):
        self.spec = spec
        self._batch = 0
        if spec.startswith("batch:"):
            try:
                self._batch = int(spec[len("batch:") :])
            except ValueError:
                raise DurabilityError(f"bad fsync policy {spec!r}") from None
            if self._batch < 1:
                raise DurabilityError("batch fsync threshold must be >= 1")
        elif spec not in ("always", "drain"):
            raise DurabilityError(f"unknown fsync policy {spec!r}")

    def should_fsync(self, pending_bytes: int) -> bool:
        """Must the store fsync now, with *pending_bytes* not yet synced?"""
        if self.spec == "always":
            return True
        if self._batch:
            return pending_bytes >= self._batch
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FsyncPolicy):
            return NotImplemented
        return self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"FsyncPolicy({self.spec!r})"


ANY = AckPolicy("any")
QUORUM = AckPolicy("quorum")
ALL = AckPolicy("all")
