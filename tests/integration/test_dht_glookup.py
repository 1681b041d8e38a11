"""The DHT-backed global GLookupService tier."""

import pytest

from repro import encoding
from repro.naming import GdpName
from repro.routing import GdpRouter, RoutingDomain
from repro.routing.dht import RECORD_TTL, make_record, value_principal
from repro.routing.dht_glookup import DhtGLookupService
from repro.server import DataCapsuleServer
from repro.client import GdpClient, OwnerConsole
from repro.sim import GBPS, SimNetwork, build_dht


def dht_name(i: int) -> GdpName:
    return GdpName.derive("dhtgl.node", i)


@pytest.fixture()
def dht_world(owner_keys):
    """A two-domain GDP whose *root* GLookupService is DHT-backed."""
    net = SimNetwork(seed=31)
    clock = lambda: net.sim.now  # noqa: E731
    dht = build_dht(net, [dht_name(i) for i in range(16)], k=4)

    root = RoutingDomain("global", clock=clock)
    # Swap the root's storage for the DHT-backed implementation.
    root.glookup = DhtGLookupService(
        "global", dht, dht_name(0), clock=clock
    )
    edge = RoutingDomain("global.edge", root)
    r_root = GdpRouter(net, "r_root", root)
    r_edge = GdpRouter(net, "r_edge", edge)
    net.connect(r_edge, r_root, latency=0.02, bandwidth=GBPS)
    edge.attach_to_parent(r_edge, r_root)

    server = DataCapsuleServer(net, "srv_edge")
    server.attach(r_edge)
    writer_client = GdpClient(net, "writerc")
    writer_client.attach(r_edge)
    reader_client = GdpClient(net, "readerc")
    reader_client.attach(r_root)
    owner = owner_keys(b"dht-owner")
    writer_key = owner_keys(b"dht-writer")
    console = OwnerConsole(writer_client, owner)
    return locals()


class TestDhtBackedGlobalTier:
    def test_advertisement_lands_in_dht(self, dht_world, run_dht):
        w = dht_world
        net = w["net"]

        def scenario():
            for endpoint in (w["server"], w["writer_client"], w["reader_client"]):
                yield endpoint.advertise()
            return True

        net.sim.run_process(scenario())
        # Names attached in the edge domain propagated into the DHT tier.
        entries = run_dht(w["dht"], w["root"].glookup.lookup(w["server"].name))
        assert len(entries) == 1
        assert entries[0].via_child == "global.edge"
        # And are spread across DHT nodes.
        holders = sum(
            1
            for node in w["dht"].nodes.values()
            if w["server"].name in node.store and node.store[w["server"].name]
        )
        assert holders >= 2

    def test_cross_domain_read_through_dht_tier(self, dht_world):
        w = dht_world
        net = w["net"]

        def scenario():
            for endpoint in (w["server"], w["writer_client"], w["reader_client"]):
                yield endpoint.advertise()
            metadata = w["console"].design_capsule(w["writer_key"].public)
            yield from w["console"].place_capsule(
                metadata, [w["server"].metadata]
            )
            yield 0.5
            writer = w["writer_client"].open_writer(metadata, w["writer_key"])
            yield from writer.append(b"via-dht")
            record = (yield from w["reader_client"].read(metadata.name, 1)).record
            return record.payload

        assert net.sim.run_process(scenario()) == b"via-dht"

    def test_forged_dht_value_skipped(self, dht_world):
        """A malicious DHT node hands back garbage and a forged entry;
        resolution skips both and the verified route still wins."""
        w = dht_world
        net = w["net"]

        def scenario():
            for endpoint in (w["server"], w["writer_client"], w["reader_client"]):
                yield endpoint.advertise()
            metadata = w["console"].design_capsule(w["writer_key"].public)
            yield from w["console"].place_capsule(
                metadata, [w["server"].metadata]
            )
            yield 0.5
            writer = w["writer_client"].open_writer(metadata, w["writer_key"])
            yield from writer.append(b"still-true")
            # Poison every DHT replica holding the capsule key with a
            # well-formed record whose payload is junk (test-side
            # tampering — protocol code never reaches into stores).
            poison = make_record({"garbage": 1}, net.sim.now + 300.0)
            for node in w["dht"].nodes.values():
                if metadata.name in node.store:
                    node.store[metadata.name][
                        value_principal(poison["d"])
                    ] = dict(poison)
            for router in (w["r_root"], w["r_edge"]):
                router.flush_fib()
            record = (yield from w["reader_client"].read(metadata.name, 1)).record
            return record.payload

        refused = w["root"].glookup.metrics.counter("dht.records_refused")
        assert net.sim.run_process(scenario()) == b"still-true"
        assert refused.value >= 1

    def test_unregister_removes_from_dht(self, dht_world, run_dht):
        w = dht_world
        net = w["net"]
        glookup = w["root"].glookup

        def scenario():
            yield w["server"].advertise()
            return True

        net.sim.run_process(scenario())
        assert run_dht(w["dht"], glookup.lookup(w["server"].name))
        glookup.unregister(w["server"].name, w["server"].name)
        assert run_dht(w["dht"], glookup.lookup(w["server"].name)) == []

    def test_member_cannot_erase_or_shadow_a_binding(self, dht_world, run_dht):
        """A non-home DHT member stores a forged tombstone and a junk
        value at a huge version for the server's name (records written
        in the old ``{p, v, d, e[, t]}`` shape).  The binding survives
        both, right away and after the server advertises again."""
        w = dht_world
        net = w["net"]
        glookup = w["root"].glookup
        server = w["server"].name

        def advertise():
            yield w["server"].advertise()
            return True

        net.sim.run_process(advertise())
        principal = glookup.peek(server)[0].principal.raw
        expiry = encoding.pack_float(net.sim.now + 3600.0)
        forged = [
            {"p": principal, "v": 10**12, "d": None, "e": expiry, "t": 1},
            {"p": principal, "v": 10**12, "d": {"junk": 1}, "e": expiry},
        ]
        run_dht(w["dht"], w["dht"].put_records_proc(dht_name(5), server, forged))

        def resolved():
            entries = run_dht(w["dht"], glookup.lookup(server))
            assert len(entries) == 1
            assert entries[0].name == server
            assert entries[0].principal.raw == principal
            entries[0].verify(now=net.sim.now)

        resolved()
        assert glookup.metrics.counter("dht.records_refused").value >= 2
        net.sim.run_process(advertise())
        resolved()

    def test_replayed_superseded_binding_does_not_displace(
        self, dht_world, run_dht
    ):
        """A member re-puts the server's superseded (genuine) binding
        with a fresh expiry; the lookup still returns exactly the
        current one."""
        w = dht_world
        net = w["net"]
        glookup = w["root"].glookup
        server = w["server"].name

        def advertise(lease):
            yield w["server"].advertise(expires_at=net.sim.now + lease)
            return True

        net.sim.run_process(advertise(60.0))
        superseded = glookup.peek(server)[0].to_wire()
        net.sim.run_process(advertise(120.0))
        [current] = glookup.peek(server)
        assert current.to_wire() != superseded
        replay = make_record(superseded, net.sim.now + RECORD_TTL)
        run_dht(w["dht"], w["dht"].put_records_proc(dht_name(5), server, [replay]))
        assert run_dht(w["dht"], glookup.lookup(server)) == [current]

    def test_wire_roundtrip_preserves_verification(self, dht_world, run_dht):
        w = dht_world
        net = w["net"]

        def scenario():
            yield w["server"].advertise()
            return True

        net.sim.run_process(scenario())
        for entry in run_dht(w["dht"], w["root"].glookup.lookup(w["server"].name)):
            entry.verify(now=net.sim.now)  # survived the DHT round trip

    def test_forged_but_wellformed_entry_rejected(self, dht_world, owner_keys):
        """A compromised DHT node plants a *decodable* entry whose
        evidence doesn't actually cover the name (a forged binding, not
        mere garbage).  The resolving router re-verifies before FIB
        install and must refuse it."""
        w = dht_world
        net = w["net"]

        def scenario():
            for endpoint in (w["server"], w["writer_client"], w["reader_client"]):
                yield endpoint.advertise()
            metadata = w["console"].design_capsule(w["writer_key"].public)
            yield from w["console"].place_capsule(
                metadata, [w["server"].metadata]
            )
            yield 0.5
            writer = w["writer_client"].open_writer(metadata, w["writer_key"])
            yield from writer.append(b"authentic")
            # Forge: take the server's real (verifiable) self-entry
            # wire, but re-file it claiming to cover the capsule name.
            real = w["root"].glookup.peek(w["server"].name)[0]
            forged = real.to_wire()
            forged["name"] = metadata.name.raw
            planted = make_record(forged, net.sim.now + 300.0)
            for node in w["dht"].nodes.values():
                if metadata.name in node.store:
                    node.store[metadata.name][
                        value_principal(forged)
                    ] = dict(planted)
            for router in (w["r_root"], w["r_edge"]):
                router.flush_fib()
            record = (yield from w["reader_client"].read(metadata.name, 1)).record
            return record.payload

        assert net.sim.run_process(scenario()) == b"authentic"

    def test_domain_glookup_injection(self, dht_world):
        """RoutingDomain(glookup=...) installs the supplied service and
        wires it into the hierarchy."""
        w = dht_world
        clock = lambda: w["net"].sim.now  # noqa: E731
        injected = DhtGLookupService(
            "global.alt", w["dht"], dht_name(1), clock=clock
        )
        alt = RoutingDomain("global.alt", w["root"], glookup=injected)
        assert alt.glookup is injected
        assert alt.glookup.parent is w["root"].glookup

    def test_dht_query_metrics_recorded(self, dht_world, run_dht):
        w = dht_world
        net = w["net"]
        glookup = w["root"].glookup

        def scenario():
            yield w["server"].advertise()
            return True

        net.sim.run_process(scenario())
        lookups = glookup.metrics.counter("dht.lookups")
        before = lookups.value
        run_dht(w["dht"], glookup.lookup(w["server"].name))
        assert lookups.value == before + 1
        assert glookup.metrics.counter("dht.messages").value >= 1
        hops = glookup.metrics.histogram("dht.hops")
        assert hops.count >= 1
        # 16-node ring: every lookup must be within the log bound.
        assert hops.max <= 6


class TestOneResolutionWalk:
    def test_miss_at_a_pending_tier_climbs_to_its_ancestors(self, owner_keys):
        """The *edge* tier is DHT-backed on the routers' own network, so
        its answers are pending mid-run; the server's name lives only in
        the packed root tier above it.  The PDU parked on the edge
        tier's miss must resume the walk and be forwarded upward, not
        bounced."""
        net = SimNetwork(seed=37)
        clock = lambda: net.sim.now  # noqa: E731
        dht = build_dht(net, [dht_name(i) for i in range(8)], k=4)
        root = RoutingDomain("global", clock=clock)
        edge = RoutingDomain(
            "global.edge",
            root,
            glookup=DhtGLookupService(
                "global.edge", dht, dht_name(0), clock=clock
            ),
        )
        r_root = GdpRouter(net, "r_root", root)
        r_edge = GdpRouter(net, "r_edge", edge)
        net.connect(r_edge, r_root, latency=0.02, bandwidth=GBPS)
        edge.attach_to_parent(r_edge, r_root)
        server = DataCapsuleServer(net, "srv_root")
        server.attach(r_root)
        client = GdpClient(net, "edgec")
        client.attach(r_edge)
        writer_key = owner_keys(b"walk-writer")
        console = OwnerConsole(client, owner_keys(b"walk-owner"))

        def scenario():
            yield server.advertise()
            yield client.advertise()
            metadata = console.design_capsule(writer_key.public)
            yield from console.place_capsule(metadata, [server.metadata])
            yield 0.5
            writer = client.open_writer(metadata, writer_key)
            yield from writer.append(b"climbed")
            return (yield from client.read(metadata.name, 1)).record.payload

        assert net.sim.run_process(scenario()) == b"climbed"
        assert r_edge.metrics.counter("router.parked").value >= 1
        assert r_edge.metrics.counter("router.no_route").value == 0
