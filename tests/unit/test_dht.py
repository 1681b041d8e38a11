"""Kademlia DHT: storage, retrieval, complexity bounds."""

import pytest

from repro.naming import GdpName
from repro.routing.dht import DhtNode, KademliaDht, build_dht


def name(i: int) -> GdpName:
    return GdpName.derive("test.dht", i)


@pytest.fixture(scope="module")
def dht64():
    return build_dht([name(i) for i in range(64)])


class TestDhtNode:
    def test_bucket_placement(self):
        node = DhtNode(name(0))
        peer = name(1)
        node.observe(peer)
        index = node._bucket_index(peer)
        assert peer in node.buckets[index]

    def test_self_not_observed(self):
        node = DhtNode(name(0))
        node.observe(name(0))
        assert all(not bucket for bucket in node.buckets)

    def test_lru_eviction(self):
        node = DhtNode(name(0), k=2)
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
        node = DhtNode(name(0))
        for i in range(1, 20):
            node.observe(name(i))
        key = name(100)
        closest = node.closest(key, 5)
        distances = [c.distance(key) for c in closest]
        assert distances == sorted(distances)


class TestKademlia:
    def test_put_get(self, dht64):
        stored = dht64.put(name(3), name(500), "value-500")
        assert stored >= 1
        assert "value-500" in dht64.get(name(40), name(500))

    def test_get_from_any_entry_point(self, dht64):
        dht64.put(name(5), name(600), "value-600")
        for via in [name(0), name(31), name(63)]:
            assert "value-600" in dht64.get(via, name(600))

    def test_missing_key(self, dht64):
        assert dht64.get(name(7), name(9999)) == []

    def test_multiple_values_per_key(self, dht64):
        dht64.put(name(1), name(700), "a")
        dht64.put(name(2), name(700), "b")
        values = dht64.get(name(3), name(700))
        assert set(values) >= {"a", "b"}

    def test_replication_factor(self, dht64):
        stored = dht64.put(name(0), name(800), "replicated")
        assert stored >= dht64.k // 2

    def test_logarithmic_lookup_cost(self):
        dht = build_dht([name(i) for i in range(128)], k=8)
        dht.stats.messages = 0
        dht.get(name(0), name(5000))
        # Iterative lookup should touch far fewer than all nodes.
        assert dht.stats.messages < 64

    def test_join_grows_network(self):
        dht = KademliaDht()
        for i in range(10):
            dht.join(name(i))
        assert len(dht) == 10
        dht.put(name(0), name(42), "x")
        assert "x" in dht.get(name(9), name(42))

    def test_single_node_dht(self):
        dht = KademliaDht()
        dht.join(name(0))
        dht.put(name(0), name(1), "solo")
        assert dht.get(name(0), name(1)) == ["solo"]

    def test_values_idempotent(self, dht64):
        dht64.put(name(1), name(900), "same")
        dht64.put(name(1), name(900), "same")
        values = dht64.get(name(2), name(900))
        assert values.count("same") == 1
