"""Kademlia DHT: storage, retrieval, complexity bounds."""

import pytest

from repro.naming import GdpName
from repro.routing.dht import DhtNode
from repro.sim import SimNetwork, build_dht


def name(i: int) -> GdpName:
    return GdpName.derive("test.dht", i)


@pytest.fixture(scope="module")
def dht64():
    return build_dht(SimNetwork(), [name(i) for i in range(64)])


class TestDhtNode:
    def test_bucket_placement(self):
        node = DhtNode(SimNetwork(), name(0))
        peer = name(1)
        node.observe(peer)
        index = node._bucket_index(peer)
        assert peer in node.buckets[index]

    def test_self_not_observed(self):
        node = DhtNode(SimNetwork(), name(0))
        node.observe(name(0))
        assert all(not bucket for bucket in node.buckets)

    def test_lru_eviction(self):
        node = DhtNode(SimNetwork(), name(0), k=2)
        peers = [name(i) for i in range(1, 40)]
        same_bucket = {}
        for peer in peers:
            same_bucket.setdefault(node._bucket_index(peer), []).append(peer)
        bucket_index, members = max(
            same_bucket.items(), key=lambda kv: len(kv[1])
        )
        for peer in members:
            node.observe(peer)
        assert len(node.buckets[bucket_index]) <= 2

    def test_closest_ordering(self):
        node = DhtNode(SimNetwork(), name(0))
        for i in range(1, 20):
            node.observe(name(i))
        key = name(100)
        closest = node.closest(key, 5)
        distances = [c.distance(key) for c in closest]
        assert distances == sorted(distances)


class TestKademlia:
    def test_put_get(self, dht64, run_dht):
        stored = run_dht(dht64, dht64.put_proc(name(3), name(500), "value-500"))
        assert stored.acked >= 1
        got = run_dht(dht64, dht64.get_proc(name(40), name(500)))
        assert "value-500" in got.values

    def test_get_from_any_entry_point(self, dht64, run_dht):
        run_dht(dht64, dht64.put_proc(name(5), name(600), "value-600"))
        for via in [name(0), name(31), name(63)]:
            got = run_dht(dht64, dht64.get_proc(via, name(600)))
            assert "value-600" in got.values

    def test_missing_key(self, dht64, run_dht):
        assert run_dht(dht64, dht64.get_proc(name(7), name(9999))).values == []

    def test_multiple_values_per_key(self, dht64, run_dht):
        run_dht(dht64, dht64.put_proc(name(1), name(700), "a"))
        run_dht(dht64, dht64.put_proc(name(2), name(700), "b"))
        values = run_dht(dht64, dht64.get_proc(name(3), name(700))).values
        assert set(values) >= {"a", "b"}

    def test_replication_factor(self, dht64, run_dht):
        stored = run_dht(dht64, dht64.put_proc(name(0), name(800), "replicated"))
        assert stored.acked >= dht64.k // 2

    def test_logarithmic_lookup_cost(self, run_dht):
        dht = build_dht(SimNetwork(), [name(i) for i in range(128)], k=8)
        dht.stats.messages = 0
        run_dht(dht, dht.get_proc(name(0), name(5000)))
        # Iterative lookup should touch far fewer than all nodes.
        assert dht.stats.messages < 64

    def test_join_grows_network(self, run_dht):
        dht = build_dht(SimNetwork(), [name(i) for i in range(10)])
        assert len(dht) == 10
        run_dht(dht, dht.put_proc(name(0), name(42), "x"))
        assert "x" in run_dht(dht, dht.get_proc(name(9), name(42))).values

    def test_single_node_dht(self, run_dht):
        dht = build_dht(SimNetwork(), [name(0)])
        run_dht(dht, dht.put_proc(name(0), name(1), "solo"))
        assert run_dht(dht, dht.get_proc(name(0), name(1))).values == ["solo"]

    def test_values_idempotent(self, dht64, run_dht):
        run_dht(dht64, dht64.put_proc(name(1), name(900), "same"))
        run_dht(dht64, dht64.put_proc(name(1), name(900), "same"))
        values = run_dht(dht64, dht64.get_proc(name(2), name(900))).values
        assert values.count("same") == 1
