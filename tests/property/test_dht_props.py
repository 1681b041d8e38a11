"""Property tests: the DHT stores and finds everything, from anywhere."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.naming import GdpName
from repro.sim import SimNetwork, build_dht


def name(tag, i):
    return GdpName.derive("prop.dht." + tag, i)


@pytest.fixture(scope="module")
def dht():
    return build_dht(SimNetwork(), [name("node", i) for i in range(48)], k=8)


class TestDhtProperties:
    @given(st.integers(0, 10_000), st.integers(0, 47), st.integers(0, 47))
    @settings(max_examples=60, deadline=None)
    def test_put_then_get_from_anywhere(
        self, dht, run_dht, key_id, via_put, via_get
    ):
        key = name("key", key_id)
        value = f"value-{key_id}"
        run_dht(dht, dht.put_proc(name("node", via_put), key, value))
        got = run_dht(dht, dht.get_proc(name("node", via_get), key))
        assert value in got.values

    @given(st.integers(100_000, 200_000), st.integers(0, 47))
    @settings(max_examples=40, deadline=None)
    def test_missing_keys_return_empty(self, dht, run_dht, key_id, via):
        # A key namespace nothing ever writes into.
        key = name("never-stored", key_id)
        assert run_dht(dht, dht.get_proc(name("node", via), key)).values == []

    @given(st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_replication_spreads_values(self, dht, run_dht, key_id):
        key = name("rep", key_id)
        stored = run_dht(
            dht, dht.put_proc(name("node", key_id % 48), key, "replica")
        ).acked
        holders = sum(
            1 for node in dht.nodes.values() if key in node.store
        )
        assert holders == stored >= 2

    @given(st.integers(40_000, 50_000), st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_churn_kill_f_holders_get_still_succeeds(
        self, dht, run_dht, key_id, f
    ):
        """The churn-tolerance contract: put lands on k replicas, so a
        value survives any f < k holder crashes — the lookup routes
        around dark peers (demoting them) and still returns it."""
        key = name("churn", key_id)
        via = name("node", key_id % 48)
        run_dht(dht, dht.put_proc(via, key, "survivor"))
        holders = [n for n in dht.nodes.values() if key in n.store]
        killed = [n for n in holders if n.name != via][: min(f, dht.k - 1)]
        for node in killed:
            node.crash()
        try:
            assert "survivor" in run_dht(dht, dht.get_proc(via, key)).values
        finally:
            for node in killed:
                node.restart()

    @given(st.integers(20_000, 30_000), st.integers(0, 47))
    @settings(max_examples=60, deadline=None)
    def test_lookup_hops_within_log_bound(self, dht, run_dht, key_id, via):
        """Kademlia's core complexity claim: an iterative lookup
        converges in O(log n) rounds.  Each round queries the alpha
        closest unqueried nodes, so round count — not message count —
        is the bounded quantity; allow a +2 constant for the final
        no-progress round and bucket imperfection."""
        import math

        key = name("hopkey", key_id)
        result = run_dht(dht, dht.get_proc(name("node", via), key))
        bound = math.ceil(math.log2(len(dht.nodes))) + 2
        assert 1 <= result.hops <= bound, (
            f"lookup took {result.hops} rounds, bound {bound}"
        )
        assert result.messages >= 1
