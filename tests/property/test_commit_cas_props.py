"""Property tests for the commit plane: key routing, the signed shard
map, and the CAS serialization core (no lost updates, ever).

The race property drives the *real* :class:`CommitShard` serialization
and CAS logic inside a real simulator, with only the durability layer
(the capsule writer) faked — hypothesis picks the fleet shape and the
scheduler seed, so every example is a different interleaving of
concurrent submitters hammering one key.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caapi import CommitReceipt, CommitShard, ShardMap, shard_of
from repro.crypto.keys import SigningKey
from repro.naming import GdpName
from repro.sim import SimNetwork


class TestShardOf:
    @given(st.text(max_size=60), st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_in_range_and_deterministic(self, key, n):
        index = shard_of(key, n)
        assert 0 <= index < n
        assert shard_of(key, n) == index

    @given(st.integers(2, 16))
    @settings(max_examples=20, deadline=None)
    def test_spreads_across_shards(self, n):
        used = {shard_of(f"key/{i}", n) for i in range(64 * n)}
        # A uniform-ish hash must reach well beyond one shard.
        assert len(used) >= max(2, n // 2)


class TestShardMapProperties:
    @given(st.integers(1, 8), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_sign_verify_wire_roundtrip(self, n, salt):
        coordinator = SigningKey.from_seed(b"prop-coord-%d" % salt)
        services = [GdpName.derive("prop.svc", salt * 100 + i) for i in range(n)]
        capsules = [GdpName.derive("prop.cap", salt * 100 + i) for i in range(n)]
        shard_map = ShardMap.issue(coordinator, 1, services, capsules)
        rebuilt = ShardMap.from_wire(shard_map.to_wire())
        rebuilt.verify(coordinator.public)
        assert rebuilt.shard_count == n
        assert rebuilt.services == shard_map.services

    @given(st.integers(2, 8), st.text(max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_route_agrees_with_shard_of(self, n, key):
        coordinator = SigningKey.from_seed(b"prop-coord-r")
        services = [GdpName.derive("prop.svc.r", i) for i in range(n)]
        capsules = [GdpName.derive("prop.cap.r", i) for i in range(n)]
        shard_map = ShardMap.issue(coordinator, 1, services, capsules)
        assert shard_map.shard_of(key) == shard_of(key, n)
        keyless = shard_map.route(None, key.encode())
        assert 0 <= keyless < n


class TestReceiptShim:
    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_int_compat_matches_seqno(self, seqno):
        receipt = CommitReceipt(seqno, shard=1, key="k")
        assert receipt.seqno == seqno
        assert (receipt == seqno) is False  # an envelope, not an int
        with pytest.raises(TypeError):
            int(receipt)


class _FakeWriter:
    """Durability stub: assigns seqnos like a real single-writer log,
    with a small sim-time delay so submissions genuinely interleave."""

    def __init__(self, name: GdpName):
        self.capsule_name = name
        self.seqno = 0
        self.log = []

    def append(self, payload: bytes):
        yield 0.002
        self.seqno += 1
        self.log.append(payload)
        return SimpleNamespace(seqno=self.seqno, acks=1)


class TestNoLostUpdates:
    @given(
        n_writers=st.integers(2, 5),
        ops_per_writer=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_racing_writers_all_commit(self, n_writers, ops_per_writer, seed):
        """N writers race CAS submissions on one key, rebasing onto the
        winning seqno after every conflict.  However the interleaving
        falls: every intended update commits exactly once, committed
        preconditions chain seqno-to-seqno, and nothing is overwritten
        without its writer having observed the overwritten version."""
        net = SimNetwork(seed=seed)
        shard = CommitShard(net, "prop_shard")
        shard._writer = _FakeWriter(GdpName.derive("prop.commit", seed))
        outcomes: list[dict] = []

        def writer(index: int):
            expect = 0
            committed = 0
            attempts = 0
            while committed < ops_per_writer:
                attempts += 1
                assert attempts < 200, "livelock"
                body = yield shard._serialize_and_commit(
                    None,
                    {
                        "submitter": b"w%d" % index,
                        "data": b"op",
                        "key": "hot",
                        "expect_seqno": expect,
                    },
                )
                if body["ok"]:
                    committed += 1
                    expect = body["seqno"]
                else:
                    expect = body["winning_seqno"]
                yield 0.001 * (index + 1)

            outcomes.append({"writer": index, "committed": committed})

        def main():
            procs = [
                net.sim.spawn(writer(i), name=f"w{i}")
                for i in range(n_writers)
            ]
            for proc in procs:
                yield proc.completion

        net.sim.run_process(main(), "main")

        total = n_writers * ops_per_writer
        assert sum(o["committed"] for o in outcomes) == total
        log = [e for e in shard.commit_log if e["key"] == "hot"]
        assert len(log) == total  # zero lost updates
        previous = 0
        for entry in log:
            # Linearizability of the CAS register: each commit's
            # precondition is exactly the seqno it overwrites.
            assert entry["expect"] == previous
            previous = entry["seqno"]
        assert shard.metrics.counter("commit.committed").value == total
        assert shard.version_of("hot") == previous
