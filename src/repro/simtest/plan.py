"""Episode plans: everything a simulation-test episode will do, drawn
up front from one seed.

FoundationDB-style simulation testing needs the *entire* episode —
topology shape, workload mix, payload sizes, fault schedule — to be a
pure function of the seed, so a failing seed replays exactly and a
shrinker can re-run the same episode with a reduced fault schedule.
:func:`build_plan` is that function: it consumes a seeded RNG in a fixed
order and returns a fully materialized :class:`EpisodePlan`.  Passing
``faults_override`` swaps the fault schedule *after* all draws, so the
workload and topology stay byte-for-byte identical — the property the
greedy shrinker in :mod:`repro.simtest.shrink` relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.sim.workload import op_schedule, record_sizes

__all__ = [
    "FaultEvent",
    "EpisodePlan",
    "build_plan",
    "commit_plane_spec",
    "crash_biased_faults",
    "dht_churn_faults",
    "FAULT_KINDS",
    "PROFILES",
]

#: every fault kind an episode can schedule; "partition" targets a
#: backbone link, "crash" targets a server process, the rest arm a
#: network-wide delivery-fault middleware (see repro.runtime.faults)
FAULT_KINDS = ("partition", "crash", "drop", "tamper", "delay", "replay")

#: profile-only fault kind: crashes a node of the Kademlia overlay
#: backing the global GLookup tier (never drawn by the default mix —
#: adding it to FAULT_KINDS would perturb the pinned default episodes)
DHT_FAULT_KIND = "dht_crash"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault window, relative to workload start."""

    kind: str
    target: int      # link index (partition), server index (crash), -1
    start: float     # seconds after the workload begins
    duration: float  # how long the window stays open
    rate: float      # per-PDU firing rate for middleware kinds

    @property
    def end(self) -> float:
        """Window close time (relative to workload start)."""
        return self.start + self.duration

    def describe(self) -> str:
        """One-line deterministic description (used in failure reports)."""
        where = "" if self.target < 0 else f" target={self.target}"
        rate = "" if not self.rate else f" rate={self.rate:.2f}"
        return (
            f"{self.kind}{where} t={self.start:.2f}s"
            f"+{self.duration:.2f}s{rate}"
        )


@dataclass
class EpisodePlan:
    """A fully materialized episode: pure data, no live objects."""

    seed: int
    # topology shape (drives sim.topology.federated_campus)
    n_domains: int
    routers_per_domain: int
    intra_latency: float
    backbone_latency: float
    # derived world sizing
    n_links: int
    n_servers: int
    # workload
    ops: list[str]
    payload_sizes: list[int]
    ack_policies: list[str]
    gaps: list[float]
    read_fracs: list[float]
    use_subscriber: bool
    # fault schedule
    faults: list[FaultEvent] = field(default_factory=list)
    #: sharded-commit-plane workload spec (the ``"commit"`` profile);
    #: ``None`` means the episode runs without a commit plane
    commit_plane: dict | None = None

    @property
    def fault_horizon(self) -> float:
        """When the last fault window closes (relative to workload
        start); 0.0 for a fault-free episode."""
        return max((event.end for event in self.faults), default=0.0)

    def describe(self) -> list[str]:
        """Deterministic summary lines for reports."""
        lines = [
            f"topology: domains={self.n_domains} "
            f"routers/domain={self.routers_per_domain} "
            f"servers={self.n_servers}",
            f"workload: ops={len(self.ops)} "
            f"appends={sum(1 for op in self.ops if op == 'append')} "
            f"subscriber={'yes' if self.use_subscriber else 'no'}",
            f"faults: {len(self.faults)}",
        ]
        lines.extend(f"  - {event.describe()}" for event in self.faults)
        if self.commit_plane is not None:
            spec = self.commit_plane
            lines.append(
                f"commit plane: shards={spec['n_shards']} "
                f"submitters={spec['n_submitters']} "
                f"ops/submitter={spec['ops_per_submitter']} "
                f"hot_keys={len(spec['hot_keys'])} "
                f"hot_frac={spec['hot_frac']:.2f}"
            )
        return lines


def _draw_faults(
    rng: random.Random, span: float, n_links: int, n_servers: int
) -> list[FaultEvent]:
    """The random fault schedule: 2-6 windows inside the workload phase.

    At most one window per middleware kind, so arm/disarm windows never
    fight over one middleware's rate.
    """
    events: list[FaultEvent] = []
    used_middleware: set[str] = set()
    for _ in range(rng.randint(2, 6)):
        kind = rng.choice(FAULT_KINDS)
        start = rng.uniform(0.3, max(1.0, span * 0.7))
        duration = rng.uniform(0.5, max(1.0, span * 0.5))
        if kind == "partition":
            target, rate = rng.randrange(n_links), 0.0
        elif kind == "crash":
            target, rate = rng.randrange(n_servers), 0.0
        else:
            target, rate = -1, rng.uniform(0.05, 0.25)
            if kind in used_middleware:
                continue  # keep one window per middleware kind
            used_middleware.add(kind)
        events.append(FaultEvent(kind, target, start, duration, rate))
    return events


def crash_biased_faults(
    seed: int, span: float, n_links: int, n_servers: int
) -> list[FaultEvent]:
    """The routing-resilience soak schedule: mostly server crashes, with
    windows sized against the episode lease (simtest.world.LEASE_TTL)
    so advertisements actually *expire* while their server is down and
    clients must fail over, not just wait out a blip.

    Drawn from a dedicated RNG stream, so it never perturbs the default
    :func:`build_plan` draw sequence (same-seed default episodes stay
    byte-identical).
    """
    rng = random.Random(f"crash-bias:{seed}")
    events: list[FaultEvent] = []
    for _ in range(rng.randint(3, 6)):
        kind = rng.choice(("crash", "crash", "crash", "partition"))
        start = rng.uniform(0.3, max(1.0, span * 0.8))
        # Longer than the 8s lease more often than not: the crashed
        # server's routes lapse mid-window instead of surviving it.
        duration = rng.uniform(4.0, 14.0)
        if kind == "crash":
            target = rng.randrange(n_servers)
        else:
            target = rng.randrange(n_links)
        events.append(FaultEvent(kind, target, start, duration, 0.0))
    return events


def dht_churn_faults(
    seed: int, span: float, n_links: int, n_servers: int
) -> list[FaultEvent]:
    """The DHT-churn soak schedule: windows of overlay-node crashes
    (the episode runner caps concurrent DHT deaths at ``k - 1`` and
    never kills the home node, so resolution must keep succeeding while
    up to ``k - 1`` replica holders are dark), with an occasional
    network-wide drop window stressing the per-RPC timeout/retry path.

    Drawn from a dedicated RNG stream, like :func:`crash_biased_faults`,
    so the default draw sequence stays byte-identical.
    """
    rng = random.Random(f"dht-churn:{seed}")
    events: list[FaultEvent] = []
    for _ in range(rng.randint(3, 5)):
        start = rng.uniform(0.3, max(1.0, span * 0.8))
        # Longer than the record TTL's republish cadence more often than
        # not: re-replication (not luck) must carry the lookups.
        duration = rng.uniform(6.0, 16.0)
        events.append(FaultEvent(
            DHT_FAULT_KIND, rng.randrange(16), start, duration, 0.0
        ))
    if rng.random() < 0.5:
        events.append(FaultEvent(
            "drop",
            -1,
            rng.uniform(0.3, max(1.0, span * 0.5)),
            rng.uniform(0.5, max(1.0, span * 0.4)),
            rng.uniform(0.05, 0.2),
        ))
    return events


def commit_plane_spec(seed: int) -> dict:
    """The ``"commit"`` profile's multi-writer workload: shard count,
    submitter fleet size, per-submitter CAS op budget, and the hot-key
    mix that manufactures write-write conflicts.

    Drawn from a dedicated RNG stream (like :func:`crash_biased_faults`)
    so enabling the profile never perturbs the default draw sequence —
    same-seed default episodes stay byte-identical.
    """
    rng = random.Random(f"commit:{seed}")
    n_shards = rng.choice((1, 2, 4))
    return {
        "n_shards": n_shards,
        "n_submitters": rng.randint(2, 4),
        "ops_per_submitter": rng.randint(3, 6),
        # 1-2 hot keys concentrate CAS races; the rest of the ops spread
        # over per-submitter private keys (exercising shard routing).
        "hot_keys": [f"hot/{i}" for i in range(rng.randint(1, 2))],
        "hot_frac": round(rng.uniform(0.5, 0.9), 3),
    }


#: named episode profiles accepted by :func:`build_plan`
PROFILES = ("default", "crash_bias", "commit", "dht_churn")


def build_plan(
    seed: int,
    *,
    faults_override: list[FaultEvent] | None = None,
    profile: str = "default",
) -> EpisodePlan:
    """The pure seed -> plan function (see module docstring).

    ``faults_override`` replaces the fault schedule after every random
    draw has been made, leaving topology and workload untouched.
    ``profile`` picks a named variant the same way (post-draw swap):
    ``"crash_bias"`` substitutes :func:`crash_biased_faults` for the
    default mix — the nightly routing-resilience soak profile — and
    ``"commit"`` attaches a sharded commit plane with racing CAS
    submitters (:func:`commit_plane_spec`), keeping the default fault
    schedule so the multi-writer path is judged under the full chaos mix.
    """
    rng = random.Random(seed)
    n_domains = rng.randint(1, 3)
    routers_per_domain = rng.randint(1, 2)
    intra_latency = rng.choice([0.001, 0.002, 0.005])
    backbone_latency = rng.choice([0.010, 0.015, 0.030])
    # federated_campus creates routers_per_domain links per domain (the
    # intra-domain chain plus the gateway's backbone uplink).
    n_site_routers = n_domains * routers_per_domain
    n_links = n_site_routers
    n_servers = min(3, max(2, n_site_routers))

    n_ops = rng.randint(10, 16)
    ops = op_schedule(n_ops, seed=seed * 977 + 1)
    payload_sizes = record_sizes(n_ops, mean=96, seed=seed * 977 + 2)
    ack_policies = [
        rng.choice(["any", "any", "quorum", "all"]) for _ in range(n_ops)
    ]
    gaps = [rng.uniform(0.2, 0.8) for _ in range(n_ops)]
    read_fracs = [rng.random() for _ in range(n_ops)]
    use_subscriber = rng.random() < 0.5

    faults = _draw_faults(rng, sum(gaps), n_links, n_servers)
    plan = EpisodePlan(
        seed=seed,
        n_domains=n_domains,
        routers_per_domain=routers_per_domain,
        intra_latency=intra_latency,
        backbone_latency=backbone_latency,
        n_links=n_links,
        n_servers=n_servers,
        ops=ops,
        payload_sizes=payload_sizes,
        ack_policies=ack_policies,
        gaps=gaps,
        read_fracs=read_fracs,
        use_subscriber=use_subscriber,
        faults=faults,
    )
    if profile not in PROFILES:
        raise ValueError(f"unknown fault profile: {profile!r}")
    if profile == "crash_bias":
        plan.faults = crash_biased_faults(
            seed, sum(gaps), n_links, n_servers
        )
    if profile == "commit":
        plan.commit_plane = commit_plane_spec(seed)
    if profile == "dht_churn":
        plan.faults = dht_churn_faults(seed, sum(gaps), n_links, n_servers)
    if faults_override is not None:
        plan.faults = [replace(event) for event in faults_override]
    return plan
