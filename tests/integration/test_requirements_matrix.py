"""Table I, executed: each platform requirement (§II) demonstrated by a
scripted scenario against its enabling feature.

| Requirement              | Enabling feature (paper)                     |
|--------------------------|----------------------------------------------|
| Homogeneous interface    | one DataCapsule interface, diverse apps      |
| Federated architecture   | flat name as trust anchor, no PKI            |
| Locality                 | hierarchical routing domains                 |
| Secure storage           | capsule as ADS, client-verifiable            |
| Administrative boundaries| explicit per-capsule delegations             |
| Secure routing           | secure advertisements + delegations          |
| Publish-subscribe        | native subscribe on capsules                 |
| Incremental deployment   | overlay over existing (simulated IP) networks|
"""

import pytest

from repro.caapi import CapsuleKVStore, StreamPublisher, TimeSeriesLog
from repro.errors import GdpError


class TestTableI:
    def test_homogeneous_interface(self, mini_gdp):
        """One capsule substrate serves three very different CAAPIs
        (kv store, time-series, stream) with no server-side changes."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            kv = CapsuleKVStore(
                g.writer_client, g.console, [g.server_edge.metadata]
            )
            ts = TimeSeriesLog(
                g.writer_client, g.console, [g.server_edge.metadata],
                writer_key=g.writer_key,
            )
            stream = StreamPublisher(
                g.writer_client, g.console, [g.server_edge.metadata]
            )
            yield from kv.create()
            yield from ts.create()
            yield from stream.create()
            yield from kv.put("mode", "auto")
            yield from ts.record(1.0, 20.5)
            yield from stream.publish(b"frame-0")
            value = yield from kv.get("mode")
            sample = yield from ts.last_sample()
            return value, sample.value

        value, reading = g.run(scenario())
        assert value == "auto" and reading == 20.5
        # All three lived on the same unmodified server.
        assert len(g.server_edge.hosted) == 3

    def test_federated_architecture_no_pki(self, mini_gdp):
        """The reader trusts only the capsule *name*; verification
        succeeds with zero shared certificate authorities — the name is
        the trust anchor."""
        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"federated")
            yield 1.0
            # A brand-new reader knowing nothing but the name.
            from repro.client import GdpClient

            stranger = GdpClient(g.net, "stranger")
            stranger.attach(g.r_root)
            yield stranger.advertise()
            record = (yield from stranger.read(metadata.name, 1)).record
            return record.payload

        assert g.run(scenario()) == b"federated"

    def test_locality(self, mini_gdp):
        """A name served in the client's own domain resolves without
        the request ever crossing the inter-domain link."""
        g = mini_gdp
        uplink = g.r_edge.link_to(g.r_root)

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"local")
            before = uplink.metrics.counter("net.sent").value
            record = (yield from g.writer_client.read(metadata.name, 1)).record
            after = uplink.metrics.counter("net.sent").value
            return record.payload, after - before

        payload, crossings = g.run(scenario())
        assert payload == b"local"
        assert crossings == 0

    def test_secure_storage_on_untrusted_infrastructure(self, mini_gdp):
        """The server can lie; the client notices (tamper -> detect)."""
        from repro.adversary import StorageTamperer

        g = mini_gdp

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place(servers=[g.server_root.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"original")
            record = (yield from g.reader_client.read(metadata.name, 1)).record
            assert record.payload == b"original"
            StorageTamperer(g.server_root).corrupt_record(metadata.name, 1)
            with pytest.raises(GdpError):
                yield from g.reader_client.read(metadata.name, 1)
            return True

        assert g.run(scenario())

    def test_administrative_boundaries(self, mini_gdp):
        """Delegation is explicit and per-capsule: a server holding no
        AdCert for a capsule cannot serve it even if asked directly."""
        from repro.server import DataCapsuleServer

        g = mini_gdp
        bystander = DataCapsuleServer(g.net, "bystander")
        bystander.attach(g.r_root)

        def scenario():
            yield from g.bootstrap()
            yield bystander.advertise()
            metadata = yield from g.place(servers=[g.server_edge.metadata])
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"x")
            # Ask the bystander directly, by its own name.
            reply = yield g.reader_client.rpc(
                bystander.name,
                {
                    "op": "read_range",
                    "capsule": metadata.name.raw,
                    "first": 1,
                    "last": 1,
                },
            )
            body = reply.get("body", reply)
            return body

        body = g.run(scenario())
        assert not body.get("ok")
        assert "not hosted" in body["error"]

    def test_secure_routing(self, mini_gdp):
        """Names cannot be claimed without proof: covered in detail by
        test_advertisement.py; here the one-line version."""
        g = mini_gdp
        g.run(g.bootstrap())
        # Every GLookup entry in the system carries evidence that
        # re-verifies independently.
        for domain in (g.root_domain, g.edge_domain):
            for name in list(domain.glookup.names()):
                for entry in domain.glookup.lookup(name):
                    entry.verify(now=g.net.sim.now)

    def test_publish_subscribe(self, mini_gdp):
        g = mini_gdp
        received = []

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            yield from g.reader_client.subscribe(
                metadata.name, lambda r, h: received.append(r.payload)
            )
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"pub")
            yield 2.0
            return True

        g.run(scenario())
        assert received == [b"pub"]

    def test_incremental_deployment_overlay(self, mini_gdp):
        """GDP names route over ordinary point-to-point links (the
        simulated IP underlay) — no GDP-specific hardware assumed: the
        whole suite runs on Link objects with latency/bandwidth only."""
        g = mini_gdp
        from repro.sim.net import Link

        assert all(isinstance(link, Link) for link in g.net.links)
        # And the same links carry both GDP PDUs and non-GDP baseline
        # traffic (see test_baselines.py), which is the overlay claim.
