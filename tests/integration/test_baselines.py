"""Baseline systems (S3 sim, SSHFS sim): correctness + expected
performance structure on the Fig. 8 topology."""

import pytest

from repro.baselines import (
    ObjectStoreClient,
    ObjectStoreServer,
    SshfsClient,
    SshfsServer,
)
from repro.client import GdpClient
from repro.errors import RecordNotFoundError
from repro.sim import blob, residential_edge_cloud


@pytest.fixture()
def world():
    topo = residential_edge_cloud(seed=21)
    net = topo.net
    s3 = ObjectStoreServer(net, "s3")
    s3.attach(topo.router("r_cloud"))
    sshfs = SshfsServer(net, "sshfs")
    sshfs.attach(topo.router("r_cloud"))
    client = GdpClient(net, "client")
    client.attach(topo.router("r_home"))
    return topo, s3, sshfs, client


def bootstrap(topo, *endpoints):
    def body():
        for endpoint in endpoints:
            yield endpoint.advertise()

    return body()


class TestObjectStore:
    def test_put_get_roundtrip(self, world):
        topo, s3, _, client = world
        data = blob(100_000, seed=1)
        store = ObjectStoreClient(client, s3.name)

        def scenario():
            yield from bootstrap(topo, s3, client)
            yield from store.put("key", data)
            return (yield from store.get("key"))

        assert topo.net.sim.run_process(scenario()) == data

    def test_multipart(self, world):
        topo, s3, _, client = world
        data = blob(3_000_000, seed=2)
        store = ObjectStoreClient(client, s3.name, part_size=1_000_000)

        def scenario():
            yield from bootstrap(topo, s3, client)
            yield from store.put("big", data)
            return (yield from store.get("big"))

        assert topo.net.sim.run_process(scenario()) == data
        assert s3.metrics.counter("s3.puts").value == 3

    def test_overwrite(self, world):
        topo, s3, _, client = world
        store = ObjectStoreClient(client, s3.name)

        def scenario():
            yield from bootstrap(topo, s3, client)
            yield from store.put("k", b"v1")
            yield from store.put("k", b"v2")
            return (yield from store.get("k"))

        assert topo.net.sim.run_process(scenario()) == b"v2"

    def test_missing_key(self, world):
        topo, s3, _, client = world
        store = ObjectStoreClient(client, s3.name)

        def scenario():
            yield from bootstrap(topo, s3, client)
            with pytest.raises(RecordNotFoundError):
                yield from store.get("ghost")
            return True

        assert topo.net.sim.run_process(scenario())


class TestSshfs:
    def test_write_read_roundtrip(self, world):
        topo, _, sshfs, client = world
        data = blob(500_000, seed=3)
        fs = SshfsClient(client, sshfs.name)

        def scenario():
            yield from bootstrap(topo, sshfs, client)
            yield from fs.write_file("/models/m.pb", data)
            return (yield from fs.read_file("/models/m.pb"))

        assert topo.net.sim.run_process(scenario()) == data

    def test_block_count(self, world):
        topo, _, sshfs, client = world
        data = blob(300_000, seed=4)
        fs = SshfsClient(client, sshfs.name, block_size=65536)

        def scenario():
            yield from bootstrap(topo, sshfs, client)
            yield from fs.write_file("/f", data)
            yield from fs.read_file("/f")
            return True

        topo.net.sim.run_process(scenario())
        expected_blocks = (300_000 + 65535) // 65536
        assert sshfs.metrics.counter("sshfs.writes").value == expected_blocks
        assert sshfs.metrics.counter("sshfs.reads").value == expected_blocks

    def test_missing_file(self, world):
        topo, _, sshfs, client = world
        fs = SshfsClient(client, sshfs.name)

        def scenario():
            yield from bootstrap(topo, sshfs, client)
            with pytest.raises(RecordNotFoundError):
                yield from fs.read_file("/ghost")
            return True

        assert topo.net.sim.run_process(scenario())

    def test_window_limits_inflight(self, world):
        """A smaller window means strictly more wall-clock on a high
        latency path (the WAN effect SSHFS is known for)."""
        topo, _, sshfs, client = world
        data = blob(1_000_000, seed=5)

        def run_with(window):
            fs = SshfsClient(client, sshfs.name, window=window)

            def scenario():
                t0 = topo.net.sim.now
                yield from fs.write_file("/w%d" % window, data)
                return topo.net.sim.now - t0

            return topo.net.sim.run_process(scenario())

        def setup():
            yield from bootstrap(topo, sshfs, client)

        topo.net.sim.run_process(setup())
        slow = run_with(1)
        fast = run_with(16)
        assert slow > fast


class TestPerformanceStructure:
    def test_uplink_bound_writes(self, world):
        """All cloud writes from the residential client are bounded
        below by size / 10 Mbps — the uplink is the bottleneck."""
        topo, s3, _, client = world
        size = 2_000_000
        data = blob(size, seed=6)
        store = ObjectStoreClient(client, s3.name)

        def scenario():
            yield from bootstrap(topo, s3, client)
            t0 = topo.net.sim.now
            yield from store.put("x", data)
            return topo.net.sim.now - t0

        elapsed = topo.net.sim.run_process(scenario())
        floor = size / (10 * 1_000_000 / 8)
        assert elapsed >= floor
        assert elapsed < floor * 1.5  # and not much above it

    def test_downlink_faster_than_uplink(self, world):
        topo, s3, _, client = world
        data = blob(2_000_000, seed=7)
        store = ObjectStoreClient(client, s3.name)

        def scenario():
            yield from bootstrap(topo, s3, client)
            t0 = topo.net.sim.now
            yield from store.put("x", data)
            wrote = topo.net.sim.now - t0
            t0 = topo.net.sim.now
            yield from store.get("x")
            read = topo.net.sim.now - t0
            return wrote, read

        wrote, read = topo.net.sim.run_process(scenario())
        assert read < wrote / 3  # 100 vs 10 Mbps
