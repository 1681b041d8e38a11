"""Table I: the platform-requirements matrix, executed.

The paper's Table I is qualitative (requirement -> enabling feature).
Here each row is an executable conformance scenario (mirroring
``tests/integration/test_requirements_matrix.py``); the benchmark runs
the whole matrix and reports PASS per row plus the end-to-end cost of
the federation bootstrap that the features rest on.
"""

from __future__ import annotations

from repro.caapi import CapsuleKVStore, TimeSeriesLog
from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.errors import GdpError, RoutingError, TimeoutError_
from repro.routing import GdpRouter, RoutingDomain
from repro.server import DataCapsuleServer
from repro.sim import GBPS, SimNetwork


def build():
    net = SimNetwork(seed=77)
    clock = lambda: net.sim.now  # noqa: E731
    root = RoutingDomain("global", clock=clock)
    edge = RoutingDomain("global.edge", root)
    r_root = GdpRouter(net, "r_root", root)
    r_edge = GdpRouter(net, "r_edge", edge)
    uplink = net.connect(r_edge, r_root, latency=0.02, bandwidth=GBPS)
    edge.attach_to_parent(r_edge, r_root)
    server_root = DataCapsuleServer(net, "srv_root")
    server_root.attach(r_root)
    server_edge = DataCapsuleServer(net, "srv_edge")
    server_edge.attach(r_edge)
    writer_client = GdpClient(net, "writerc")
    writer_client.attach(r_edge)
    reader_client = GdpClient(net, "readerc")
    reader_client.attach(r_root)
    owner = SigningKey.from_seed(b"t1-owner")
    writer_key = SigningKey.from_seed(b"t1-writer")
    console = OwnerConsole(writer_client, owner)
    return locals()


def run_matrix() -> list[tuple[str, str, bool]]:
    w = build()
    net = w["net"]
    results: list[tuple[str, str, bool]] = []

    def scenario():
        for endpoint in (
            w["server_root"], w["server_edge"],
            w["writer_client"], w["reader_client"],
        ):
            yield endpoint.advertise()

        # 1. Homogeneous interface: two different CAAPIs, same servers.
        kv = CapsuleKVStore(w["writer_client"], w["console"],
                            [w["server_edge"].metadata])
        ts = TimeSeriesLog(w["writer_client"], w["console"],
                           [w["server_edge"].metadata],
                           writer_key=w["writer_key"])
        yield from kv.create()
        yield from ts.create()
        yield from kv.put("mode", "auto")
        yield from ts.record(1.0, 21.5)
        ok = (yield from kv.get("mode")) == "auto"
        results.append(
            ("Homogeneous interface", "one capsule API, many CAAPIs", ok)
        )

        # 2. Federated architecture: name-anchored trust, no PKI.
        metadata = w["console"].design_capsule(w["writer_key"].public)
        yield from w["console"].place_capsule(
            metadata, [w["server_edge"].metadata, w["server_root"].metadata]
        )
        yield 0.5
        writer = w["writer_client"].open_writer(metadata, w["writer_key"])
        yield from writer.append(b"federated")
        yield 1.0
        record = (yield from w["reader_client"].read(metadata.name, 1)).record
        results.append(
            ("Federated architecture", "flat name as trust anchor",
             record.payload == b"federated")
        )

        # 3. Locality: local reads never cross the uplink.
        uplink_sent = w["uplink"].metrics.counter("net.sent")
        before = uplink_sent.value
        yield from w["writer_client"].read(metadata.name, 1)
        results.append(
            ("Locality", "hierarchical routing domains",
             uplink_sent.value == before)
        )

        # 4. Secure storage: tamper -> detect.
        from repro.adversary import StorageTamperer

        StorageTamperer(w["server_root"]).corrupt_record(metadata.name, 1)
        try:
            yield from w["reader_client"].read(metadata.name, 1)
            detected = False
        except GdpError:
            detected = True
        results.append(
            ("Secure storage", "capsule as verifiable ADS", detected)
        )

        # 5. Administrative boundaries: per-capsule delegation enforced.
        scoped = w["console"].design_capsule(
            w["writer_key"].public, extra={"scoped": 1}
        )
        yield from w["console"].place_capsule(
            scoped, [w["server_edge"].metadata], scopes=["global.edge"]
        )
        yield 0.5
        scoped_writer = w["writer_client"].open_writer(scoped, w["writer_key"])
        yield from scoped_writer.append(b"confined")
        try:
            yield from w["reader_client"].read(scoped.name, 1)
            confined = False
        except (RoutingError, TimeoutError_):
            confined = True
        results.append(
            ("Administrative boundaries", "AdCert scope policies", confined)
        )

        # 6. Secure routing: every installed route re-verifies.
        verified = True
        for domain in (w["root"], w["edge"]):
            for name in list(domain.glookup.names()):
                for entry in domain.glookup.lookup(name):
                    try:
                        entry.verify(now=net.sim.now)
                    except GdpError:
                        verified = False
        results.append(
            ("Secure routing", "advertisements + AdCert/RtCert chains",
             verified)
        )

        # 7. Publish-subscribe: native subscribe works cross-domain.
        received = []
        yield from w["reader_client"].subscribe(
            metadata.name, lambda r, h: received.append(r.seqno)
        )
        yield from writer.append(b"pub")
        yield 2.0
        results.append(
            ("Publish-subscribe", "subscribe as a native capsule op",
             received == [2])
        )

        # 8. Incremental deployment: everything above ran as an overlay
        # on plain point-to-point links.
        from repro.sim.net import Link

        results.append(
            ("Incremental deployment", "overlay on existing links",
             all(isinstance(link, Link) for link in net.links))
        )
        return results

    return net.sim.run_process(scenario())


def test_table1_matrix(benchmark, report):
    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    report.line("Table I — platform requirements, executed")
    report.table(
        ["requirement", "enabling feature", "status"],
        [[req, feature, "PASS" if ok else "FAIL"] for req, feature, ok in results],
    )
    assert all(ok for _, _, ok in results)
    assert len(results) == 8
