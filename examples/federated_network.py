#!/usr/bin/env python3
"""A federation of administrative domains: delegation, anycast, attacks.

Builds the Figure 1 world: several independently operated sites joined
by a backbone, a storage *organization* whose member servers inherit
delegations (§V fn. 8), anycast reads landing on the closest replica,
and two attacks — a name-squatting endpoint and a compromised
GLookupService — both stopped by the verifiable-routing machinery (§VII).

Run:  python examples/federated_network.py
"""

from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.delegation import AdCert, OrgMembership, ServiceChain
from repro.naming import make_organization_metadata
from repro.routing import GdpRouter, RoutingDomain  # noqa: F401 (doc import)
from repro.routing.glookup import RouteEntry
from repro.server import DataCapsuleServer
from repro.sim import federated_campus


def main():
    topo = federated_campus(n_domains=3, seed=42)
    net = topo.net

    # A storage organization ("StoreCo") operates servers in two sites.
    storeco_key = SigningKey.from_seed(b"storeco")
    storeco_md = make_organization_metadata(storeco_key)
    server_a = DataCapsuleServer(net, "storeco_site0")
    server_a.attach(topo.router("site0_r1"))
    server_b = DataCapsuleServer(net, "storeco_site2")
    server_b.attach(topo.router("site2_r1"))
    memberships = {
        server.name: OrgMembership.issue(
            storeco_key, storeco_md.name, server.name
        )
        for server in (server_a, server_b)
    }

    publisher = GdpClient(net, "publisher")
    publisher.attach(topo.router("site1_r0"))
    reader_near = GdpClient(net, "reader_site0")
    reader_near.attach(topo.router("site0_r0"))
    reader_far = GdpClient(net, "reader_site2")
    reader_far.attach(topo.router("site2_r0"))

    owner_key = SigningKey.from_seed(b"publisher-owner")
    writer_key = SigningKey.from_seed(b"publisher-writer")
    console = OwnerConsole(publisher, owner_key)

    def scenario():
        for endpoint in (server_a, server_b, publisher, reader_near, reader_far):
            yield endpoint.advertise()

        # The owner delegates to the ORGANIZATION, not to individual
        # servers ("in practice, a DataCapsule-owner issues such
        # delegations to storage organizations", fn. 8); each member
        # server proves membership to serve.
        metadata = console.design_capsule(writer_key.public, label="bulletin")
        adcert = AdCert.issue(owner_key, metadata.name, storeco_md.name)
        yield from console.place(metadata, {
            server.name: ServiceChain(
                metadata, adcert, server.metadata,
                storeco_md, memberships[server.name],
            )
            for server in (server_a, server_b)
        })
        yield 0.5
        print(f"capsule {metadata.name.human()} delegated to StoreCo "
              "(org-level AdCert + per-server memberships)")

        writer = publisher.open_writer(metadata, writer_key)
        for i in range(4):
            yield from writer.append(b"bulletin-%d" % i)
        yield 1.0

        # Anycast: each reader is served by the replica in its own site.
        yield from reader_near.read(metadata.name, 1)
        yield from reader_far.read(metadata.name, 1)
        print(f"anycast: site0 reader -> site0 server "
              f"(reads={server_a.stats['reads']}), "
              f"site2 reader -> site2 server "
              f"(reads={server_b.stats['reads']})")
        assert server_a.stats["reads"] == 1
        assert server_b.stats["reads"] == 1

        # Attack 1: a squatter tries to advertise the capsule name with
        # a self-made chain — the router drops the catalog entry.
        squatter = DataCapsuleServer(net, "squatter")
        squatter.attach(topo.router("site1_r1"))
        evil_key = SigningKey.from_seed(b"evil")
        evil_adcert = AdCert.issue(evil_key, metadata.name, squatter.name)
        evil_chain = ServiceChain(metadata, evil_adcert, squatter.metadata)
        accepted = yield squatter.advertise(
            [{"chain": evil_chain.to_wire()}]
        )
        squatted = metadata.name.raw in accepted
        print(f"attack 1 (squatter advertises foreign capsule): "
              f"{'LEAKED' if squatted else 'rejected by router'}")
        assert not squatted

        # Attack 2: a compromised GLookupService hands out a forged
        # route; the resolving router re-verifies and skips it.
        root_glookup = topo.domain("global").glookup
        root_glookup.verify_on_register = False
        forged_entry = RouteEntry(
            metadata.name,
            router=topo.router("bb0").name,
            principal=squatter.name,
            principal_metadata=squatter.metadata,
            rtcert=None,
            chain=evil_chain,
            router_metadata=topo.router("bb0").metadata,
        )
        root_glookup.register(forged_entry, propagate=False)
        for router in topo.routers.values():
            router.flush_fib()
        result = yield from reader_far.read(metadata.name, 2)
        print(f"attack 2 (compromised GLookupService): forged route "
              f"skipped, read still verified: {result.record.payload!r}")
        return True

    net.sim.run_process(scenario())
    print(f"done at simulated t={net.sim.now:.2f}s")


if __name__ == "__main__":
    main()
