"""Tallies are not control: the metrics registry only counts.

One seeded scenario runs with the registry on and with it off
(``SimNetwork(metrics_enabled=False)`` hands out no-op instruments).
Every count anti-entropy, the DHT and the client keep now lives in the
registry, so if any code path branched on one, the two runs would
diverge: in what sync fetched, what the DHT returned, what a verified
read returned, or in the trace of the routers' and endpoints' PDUs."""

from repro.adversary import StorageTamperer
from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.naming import GdpName
from repro.routing import GdpRouter, RoutingDomain
from repro.server import DataCapsuleServer, sync_once
from repro.sim import SimNetwork, build_dht


def run_scenario(metrics_enabled: bool) -> dict:
    net = SimNetwork(seed=23, metrics_enabled=metrics_enabled)
    tracer = net.enable_tracing()
    clock = lambda: net.sim.now  # noqa: E731
    root_domain = RoutingDomain("global", clock=clock)
    edge_domain = RoutingDomain("global.edge", root_domain)
    r_root = GdpRouter(net, "r_root", root_domain)
    r_edge = GdpRouter(net, "r_edge", edge_domain)
    link = net.connect(r_edge, r_root, latency=0.02, bandwidth=1.25e8)
    edge_domain.attach_to_parent(r_edge, r_root)
    root = DataCapsuleServer(net, "srv_root")
    root.attach(r_root)
    edge = DataCapsuleServer(net, "srv_edge")
    edge.attach(r_edge)
    writer_client = GdpClient(net, "writer_client")
    writer_client.attach(r_edge)
    reader = GdpClient(net, "reader_client")
    reader.attach(r_root)
    writer_key = SigningKey.from_seed(b"tallies-writer")
    console = OwnerConsole(writer_client, SigningKey.from_seed(b"tallies-owner"))
    dht = build_dht(net, [GdpName.derive("tallies.dht", i) for i in range(8)], k=4)
    key = GdpName.derive("tallies.key", 0)
    out: dict = {}

    def scenario():
        for endpoint in (root, edge, writer_client, reader):
            yield endpoint.advertise()
        metadata = console.design_capsule(writer_key.public, pointer_strategy="chain")
        yield from console.place_capsule(metadata, [root.metadata, edge.metadata])
        yield 0.5
        writer = writer_client.open_writer(metadata, writer_key)
        for i in range(4):
            yield from writer.append(b"pre-%d" % i)
        yield 0.5
        link.fail()
        yield from writer.append(b"lost")  # seqno 5: the root never sees it
        link.recover()
        r_edge.flush_fib()
        r_root.flush_fib()
        for i in range(3):
            yield from writer.append(b"post-%d" % i)
        yield 0.5
        # The edge serves a tampered seqno 5: the round refuses it.
        StorageTamperer(edge).corrupt_record(metadata.name, 5)
        refused_round = yield from sync_once(root, metadata.name, edge.name)
        edge.restart()  # honest again: the next round fills the hole
        yield 1.0
        filled_round = yield from sync_once(root, metadata.name, edge.name)
        out["fetched"] = [refused_round, filled_round]
        out["reads"] = []
        for seqno in (1, 5, 8):
            result = yield from reader.read(metadata.name, seqno)
            out["reads"].append(result.record.payload)
        # A DHT put while one of the key's holders is dark, then a get.
        nodes = sorted(dht.nodes)
        dark = min(nodes, key=lambda n: n.distance(key))
        dht.nodes[dark].crash()
        via = next(n for n in nodes if n != dark)
        put = yield from dht.put_proc(via, key, b"tallied")
        got = yield from dht.get_proc(nodes[-1], key)
        out["dht"] = (put.acked, sorted(got.values))

    net.sim.run_process(scenario())
    out["trace"] = tracer.to_bytes()
    out["counts"] = {
        "fetched": root.metrics.counter("server.sync.fetched").value,
        "refused": root.metrics.counter("server.sync.refused").value,
        "under_replicated": dht.metrics.counter("dht.under_replicated").value,
        "reads": reader.metrics.counter(
            f"qos.{root.name.hex()}.ok"
        ).value,
    }
    return out


def test_tallies_do_not_steer_the_run():
    counted = run_scenario(metrics_enabled=True)
    uncounted = run_scenario(metrics_enabled=False)
    # the scenario did what it is about, and the registry saw it
    assert counted["fetched"] == [0, 1]
    assert counted["reads"] == [b"pre-0", b"lost", b"post-2"]
    assert counted["dht"][1] == [b"tallied"]
    assert counted["counts"]["fetched"] == 1
    assert counted["counts"]["refused"] == 1
    assert counted["counts"]["under_replicated"] == 1
    assert counted["counts"]["reads"] >= 3
    assert b"node=srv_edge" in counted["trace"]
    assert set(uncounted.pop("counts").values()) == {0}
    counted.pop("counts")
    assert uncounted == counted
