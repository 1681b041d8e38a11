"""Topology builders for the paper's evaluation scenarios.

Link parameters come straight from §IX: "our client is in a residential
network, with the Internet bandwidth capped to 100/10 Mbps
(upload/download) [sic — download/upload]: a good representative of an
average household Internet connection in United States.  We compare
against an Amazon S3 bucket in a specific S3 region (on the same
continent).  We run the GDP infrastructure in Amazon EC2 in the same
region ... Next, we run the same experiment, but this time we use the
GDP infrastructure in local environment using on-premise edge
resources."
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.sim.net import SimNetwork

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.naming.names import GdpName
    from repro.routing.dht import KademliaDht
    from repro.routing.domain import RoutingDomain
    from repro.routing.router import GdpRouter

__all__ = [
    "Topology",
    "single_router",
    "residential_edge_cloud",
    "federated_campus",
    "random_topology",
    "build_dht",
    "MBPS",
    "GBPS",
]

MBPS = 1_000_000 / 8  # bytes per second per Mbit/s
GBPS = 1_000_000_000 / 8
#: point-to-point DHT overlay link shape (full mesh; loss stays 0 so the
#: DHT draws nothing from the network RNG — determinism by construction)
LINK_LATENCY = 0.0005
LINK_BANDWIDTH = 10e9


@dataclass
class Topology:
    """A built topology: the network plus named handles."""

    net: SimNetwork
    domains: dict = field(default_factory=dict)
    routers: dict = field(default_factory=dict)

    def domain(self, name: str) -> "RoutingDomain":
        """Look up a routing domain by name."""
        return self.domains[name]

    def router(self, name: str) -> "GdpRouter":
        """Look up a router by node id."""
        return self.routers[name]


def single_router(
    seed: int = 0, *, service_time: float | None = None
) -> Topology:
    """One router in one domain — the Figure 6 forwarding testbed
    (clients and servers all attach to the same GDP-router, as in the
    paper's EC2 setup)."""
    from repro.routing.domain import RoutingDomain
    from repro.routing.router import GdpRouter

    net = SimNetwork(seed=seed)
    clock = lambda: net.sim.now  # noqa: E731
    root = RoutingDomain("global", clock=clock)
    kwargs = {} if service_time is None else {"service_time": service_time}
    router = GdpRouter(net, "r0", root, **kwargs)
    return Topology(net, {"global": root}, {"r0": router})


def residential_edge_cloud(seed: int = 0) -> Topology:
    """The Figure 8 case-study topology.

    =========  ====================================================
    domain     contents
    =========  ====================================================
    global     the ISP / Internet backbone router
    global.cloud  the EC2-region datacenter (S3 + GDP cloud servers)
    global.home   the residential LAN (client + on-premise edge box)
    =========  ====================================================

    The home uplink is 10 Mbps up / 100 Mbps down with ~10 ms to the
    ISP; ISP to the cloud region is fat and ~10 ms; everything on the
    home LAN is 1 Gbps and sub-millisecond.
    """
    from repro.routing.domain import RoutingDomain
    from repro.routing.router import GdpRouter

    net = SimNetwork(seed=seed)
    clock = lambda: net.sim.now  # noqa: E731
    root = RoutingDomain("global", clock=clock)
    cloud = RoutingDomain("global.cloud", root)
    home = RoutingDomain("global.home", root)

    r_isp = GdpRouter(net, "r_isp", root)
    r_cloud = GdpRouter(net, "r_cloud", cloud)
    r_home = GdpRouter(net, "r_home", home)

    # Residential last mile: asymmetric 100 down / 10 up, ~10 ms.
    net.connect(
        r_home,
        r_isp,
        latency=0.010,
        bandwidth=10 * MBPS,       # home -> ISP (upload)
        bandwidth_up=100 * MBPS,   # ISP -> home (download)
    )
    # Backbone into the cloud region: 10 Gbps, ~10 ms.
    net.connect(r_cloud, r_isp, latency=0.010, bandwidth=10 * GBPS)

    home.attach_to_parent(r_home, r_isp)
    cloud.attach_to_parent(r_cloud, r_isp)
    return Topology(
        net,
        {"global": root, "global.cloud": cloud, "global.home": home},
        {"r_isp": r_isp, "r_cloud": r_cloud, "r_home": r_home},
    )


def federated_campus(
    n_domains: int = 3,
    *,
    seed: int = 0,
    intra_latency: float = 0.002,
    backbone_latency: float = 0.015,
    routers_per_domain: int = 2,
) -> Topology:
    """A federation: one backbone domain with *n_domains* child domains,
    each a small chain of routers — the multi-administrative-entity
    fabric of Figure 1 used by federation/anycast tests and benches."""
    from repro.routing.domain import RoutingDomain
    from repro.routing.router import GdpRouter

    net = SimNetwork(seed=seed)
    clock = lambda: net.sim.now  # noqa: E731
    root = RoutingDomain("global", clock=clock)
    backbone = GdpRouter(net, "bb0", root)
    domains = {"global": root}
    routers = {"bb0": backbone}
    for d in range(n_domains):
        dname = f"global.site{d}"
        domain = RoutingDomain(dname, root)
        domains[dname] = domain
        previous = None
        gateway = None
        for r in range(routers_per_domain):
            router = GdpRouter(net, f"site{d}_r{r}", domain)
            routers[router.node_id] = router
            if previous is not None:
                net.connect(
                    router, previous, latency=intra_latency, bandwidth=GBPS
                )
            else:
                gateway = router
            previous = router
        assert gateway is not None
        net.connect(gateway, backbone, latency=backbone_latency, bandwidth=GBPS)
        domain.attach_to_parent(gateway, backbone)
    return Topology(net, domains, routers)


def random_topology(seed: int, rng: random.Random) -> Topology:
    """A randomly shaped small federation for simulation-test episodes.

    Structural choices (domain count, routers per domain, latencies) are
    drawn from *rng*; *seed* seeds the network's own RNG (link loss,
    anycast tie-breaks).  Two calls with equal *seed* and an identically
    seeded *rng* build identical topologies — the foundation of episode
    replay (see :mod:`repro.simtest`).
    """
    n_domains = rng.randint(1, 3)
    routers_per_domain = rng.randint(1, 2)
    intra_latency = rng.choice([0.001, 0.002, 0.005])
    backbone_latency = rng.choice([0.010, 0.015, 0.030])
    return federated_campus(
        n_domains,
        seed=seed,
        intra_latency=intra_latency,
        backbone_latency=backbone_latency,
        routers_per_domain=routers_per_domain,
    )


def build_dht(
    net: SimNetwork, names: Iterable["GdpName"], k: int = 8
) -> "KademliaDht":
    """A Kademlia overlay on *net*: join every name in order, each over
    full-mesh links to the members before it (entered in both peer
    tables), integrated by its join process before the next arrives."""
    from repro.routing.dht import KademliaDht

    dht = KademliaDht(net, k)
    for name in names:
        members = list(dht.nodes.values())
        node = dht.join(name)
        for other in members:
            net.connect(
                node, other, latency=LINK_LATENCY, bandwidth=LINK_BANDWIDTH
            )
            node.peers[other.node_id] = other
            other.peers[node.node_id] = node
        if members:
            net.ctx.run_process(dht.join_proc(node), f"dht-join:{node.node_id}")
    return dht
