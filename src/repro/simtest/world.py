"""Episode worlds: a live GDP built from an :class:`EpisodePlan`.

The world is the bridge between the pure plan and the running
simulation: a randomly shaped federation (via :mod:`repro.sim.topology`),
DataCapsule-servers with anti-entropy daemons, one writer client, and
the four delivery-fault middlewares installed *disarmed* so fault
windows can arm them without perturbing the RNG streams outside their
windows.

It also carries the episode's ground truth for the oracles: the seqnos
acknowledged under ``acks=all`` (must survive on every replica), the
pushes, commit receipts and probe findings the clients saw, and the
deterministic operation log.  No client copy of the records exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.client import GdpClient, OwnerConsole
from repro.naming.names import GdpName
from repro.client.failover import SubscriptionMonitor
from repro.crypto import SigningKey
from repro.routing.lease import LeaseRefreshDaemon
from repro.runtime.faults import (
    DelayFaults,
    DropFaults,
    ReplayFaults,
    TamperFaults,
)
from repro.server import AntiEntropyDaemon, DataCapsuleServer
from repro.sim.net import Link, SimNetwork
from repro.sim.topology import Topology, build_dht, federated_campus
from repro.simtest.plan import EpisodePlan

__all__ = ["EpisodeWorld", "build_world"]

#: anti-entropy gossip period inside episodes (short: episodes are
#: seconds long and must converge inside the quiesce deadline)
SYNC_INTERVAL = 2.0

#: server advertisement lease inside episodes — short enough that a
#: crashed server's routes lapse mid-episode (exercising lease expiry),
#: long enough that the half-lease refresh cadence keeps live servers up
LEASE_TTL = 8.0

#: subscription-monitor period (tip probe + stalled-push detection)
MONITOR_INTERVAL = 4.0


@dataclass
class EpisodeWorld:
    """Live handles plus ground truth for one episode."""

    plan: EpisodePlan
    topo: Topology
    backbone_links: list[Link]
    servers: list[DataCapsuleServer]
    daemons: list  # anti-entropy + lease-refresh + subscription monitor
    client: GdpClient
    console: OwnerConsole
    writer_key: SigningKey
    faults: dict  # kind -> installed (disarmed) fault middleware
    # filled in as the episode runs
    metadata: object | None = None
    placement: object | None = None
    writer: object | None = None
    durable_seqnos: list[int] = field(default_factory=list)
    op_log: list[str] = field(default_factory=list)
    pushes: list[int] = field(default_factory=list)
    #: sharded commit plane (the "commit" profile; empty otherwise)
    commit_front: object | None = None
    commit_shards: list = field(default_factory=list)
    commit_clients: list = field(default_factory=list)
    #: client-side ground truth: every CommitReceipt a submitter was
    #: handed — the commit_order oracle's "no phantom ack" evidence
    commit_receipts: list[dict] = field(default_factory=list)
    #: the heal-phase reachability probe's findings (read outcome,
    #: subscription resync count) — the reachability oracle's evidence
    probe: dict = field(default_factory=dict)
    #: the Kademlia overlay backing the global tier (dht_root worlds)
    dht: object | None = None
    dht_nodes: list = field(default_factory=list)
    dht_glookup: object | None = None

    @property
    def net(self) -> SimNetwork:
        """The owning network."""
        return self.topo.net

    @property
    def routers(self) -> list:
        """All routers (backbone + site), in creation order."""
        return list(self.topo.routers.values())

    def live_servers(self) -> list[DataCapsuleServer]:
        """Servers whose process is currently up."""
        return [server for server in self.servers if not server.crashed]


def build_world(plan: EpisodePlan, *, dht_root: bool = False) -> EpisodeWorld:
    """Materialize the plan: topology, servers, client, disarmed faults.

    Identical plans build identical worlds — node ids, key seeds, and
    fault RNG seeds are all derived from ``plan.seed``.

    ``dht_root`` swaps the global domain's GLookupService for a
    Kademlia-backed :class:`DhtGLookupService` tier (§VII's scalable
    top level).  Opt-in: the pinned determinism traces cover the
    default world, and the DHT tier must not perturb them.
    """
    topo = federated_campus(
        plan.n_domains,
        seed=plan.seed,
        intra_latency=plan.intra_latency,
        backbone_latency=plan.backbone_latency,
        routers_per_domain=plan.routers_per_domain,
    )
    net = topo.net
    # The inter-router fabric built so far is the partition target set;
    # endpoint attachment links created below (and the DHT overlay mesh)
    # stay out of it.
    backbone_links = list(net.links)
    dht = None
    dht_nodes: list = []
    dht_glookup = None
    if dht_root:
        import hashlib

        from repro.routing.dht_glookup import (
            DhtGLookupService,
            DhtRepublishDaemon,
        )

        # The overlay shares the episode's network/clock: DHT RPCs ride
        # the same simulated links (and the same fault middlewares), and
        # record TTLs tick on episode time.  Join traffic runs at build
        # time, before tracing starts.
        dht_names = [
            GdpName(
                hashlib.sha256(
                    b"simtest-dht:%d:%d" % (plan.seed, i)
                ).digest()
            )
            for i in range(8)
        ]
        dht = build_dht(net, dht_names, k=4)
        dht_nodes = [dht.nodes[dht_name] for dht_name in dht_names]
        root = topo.domains["global"]
        root.glookup = DhtGLookupService(
            "global", dht, dht_names[0], clock=lambda: net.sim.now
        )
        dht_glookup = root.glookup
        for domain in topo.domains.values():
            if domain is not root:
                domain.glookup.parent = root.glookup
    site_routers = [
        router
        for node_id, router in topo.routers.items()
        if node_id != "bb0"
    ]
    servers: list[DataCapsuleServer] = []
    daemons: list = []
    for i in range(plan.n_servers):
        server = DataCapsuleServer(net, f"s{i}", lease_ttl=LEASE_TTL)
        server.attach(site_routers[i % len(site_routers)], latency=0.001)
        servers.append(server)
        # Seeded jitter desynchronizes the fleet (no sync storms) while
        # keeping same-seed replays byte-identical.
        daemons.append(AntiEntropyDaemon(
            server,
            interval=SYNC_INTERVAL,
            rng=random.Random(f"{plan.seed}:antientropy:{i}"),
        ))
        # Live servers re-advertise inside the lease; crashed ones skip
        # their turn, so their routes lapse (the lease doing its job).
        daemons.append(LeaseRefreshDaemon(
            server,
            rng=random.Random(f"{plan.seed}:leaserefresh:{i}"),
        ))
    if dht_glookup is not None:
        # Republish-on-expiry / re-replication after DHT holder churn.
        daemons.append(DhtRepublishDaemon(dht_glookup))
    client = GdpClient(net, "ep_client")
    client.attach(site_routers[0], latency=0.001)
    # Notices a silently dead serving replica (tip advancing elsewhere,
    # pushes stalled) and transparently re-subscribes.
    daemons.append(SubscriptionMonitor(
        client,
        interval=MONITOR_INTERVAL,
        rng=random.Random(f"{plan.seed}:submonitor"),
    ))
    owner_key = SigningKey.from_seed(b"simtest-owner-%d" % plan.seed)
    writer_key = SigningKey.from_seed(b"simtest-writer-%d" % plan.seed)
    console = OwnerConsole(client, owner_key)
    commit_front = None
    commit_shards: list = []
    commit_clients: list = []
    if plan.commit_plane is not None:
        from repro.caapi.commit_service import (
            CommitClient,
            CommitShard,
            ShardedCommitService,
        )

        spec = plan.commit_plane
        for i in range(spec["n_shards"]):
            shard = CommitShard(net, f"cshard{i}")
            shard.attach(site_routers[i % len(site_routers)], latency=0.001)
            commit_shards.append(shard)
        commit_front = ShardedCommitService(net, "cfront", commit_shards)
        commit_front.attach(site_routers[-1], latency=0.001)
        for i in range(spec["n_submitters"]):
            submitter = GdpClient(
                net,
                f"csub{i}",
                key=SigningKey.from_seed(
                    b"simtest-submitter-%d-%d" % (plan.seed, i)
                ),
            )
            submitter.attach(
                site_routers[i % len(site_routers)], latency=0.001
            )
            commit_clients.append(CommitClient(
                submitter,
                commit_front.name,
                coordinator_key=commit_front.key.public,
                rng=random.Random(f"{plan.seed}:casretry:{i}"),
            ))
    base = plan.seed * 31
    faults = {
        "drop": DropFaults(net, rng=random.Random(base + 1)).install(),
        "tamper": TamperFaults(net, rng=random.Random(base + 2)).install(),
        "delay": DelayFaults(
            net, seconds=0.4, rng=random.Random(base + 3)
        ).install(),
        "replay": ReplayFaults(
            net, seconds=0.3, rng=random.Random(base + 4)
        ).install(),
    }
    return EpisodeWorld(
        plan=plan,
        topo=topo,
        backbone_links=backbone_links,
        servers=servers,
        daemons=daemons,
        client=client,
        console=console,
        writer_key=writer_key,
        faults=faults,
        commit_front=commit_front,
        commit_shards=commit_shards,
        commit_clients=commit_clients,
        dht=dht,
        dht_nodes=dht_nodes,
        dht_glookup=dht_glookup,
    )
