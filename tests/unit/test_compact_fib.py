"""Unit tests: packed routing tables (PackedMap / ExpiryWheel /
CompactFib) — the million-name substrate under the FIB and GLookup."""

import hashlib
import tracemalloc

import pytest

from repro.naming import GdpName
from repro.routing import GdpRouter, RoutingDomain
from repro.routing.fib import CompactFib, ExpiryWheel, PackedMap
from repro.sim import SimNetwork


def raw(i: int) -> bytes:
    return i.to_bytes(32, "big")


class TestPackedMap:
    def test_set_get_roundtrip(self):
        m = PackedMap(4)
        m.set(raw(7), b"abcd")
        assert m.get(raw(7)) == b"abcd"
        assert m.get(raw(8)) is None
        assert raw(7) in m
        assert len(m) == 1

    def test_merge_preserves_sorted_lookup(self):
        m = PackedMap(4, merge_threshold=16)
        # Insert far more than the threshold, out of order.
        order = [(i * 7919) % 1000 for i in range(1000)]
        for i in order:
            m.set(raw(i), i.to_bytes(4, "big"))
        assert len(m) == len(set(order))
        for i in set(order):
            assert m.get(raw(i)) == i.to_bytes(4, "big")
        assert m.get(raw(5000)) is None

    def test_delete_log_only_and_merged(self):
        m = PackedMap(4, merge_threshold=4)
        for i in range(8):
            m.set(raw(i), b"\x00" * 4)
        m.compact()
        assert m.delete(raw(3)) is True  # merged record -> tombstone
        m.set(raw(100), b"\x01" * 4)  # log-only record
        assert m.delete(raw(100)) is True  # dropped outright
        assert m.delete(raw(3)) is False  # already gone
        assert m.delete(raw(99)) is False  # never existed
        assert len(m) == 7
        m.compact()
        assert m.get(raw(3)) is None
        assert sorted(m.keys()) == [raw(i) for i in range(8) if i != 3]

    def test_in_place_update_of_merged_value(self):
        m = PackedMap(8)
        m.set(raw(1), b"A" * 8)
        m.compact()
        m.set(raw(1), b"B" * 8)  # hits the in-place sidecar path
        assert m.get(raw(1)) == b"B" * 8
        assert len(m) == 1

    def test_reinsert_after_tombstone(self):
        m = PackedMap(4)
        m.set(raw(5), b"aaaa")
        m.compact()
        m.delete(raw(5))
        m.set(raw(5), b"bbbb")
        assert m.get(raw(5)) == b"bbbb"
        assert len(m) == 1
        m.compact()
        assert m.get(raw(5)) == b"bbbb"

    def test_items_merges_base_and_log(self):
        m = PackedMap(4, merge_threshold=1000)
        m.set(raw(2), b"base")
        m.compact()
        m.set(raw(1), b"log1")
        m.delete(raw(2))
        m.set(raw(3), b"log3")
        assert dict(m.items()) == {raw(1): b"log1", raw(3): b"log3"}

    def test_shared_prefix_keys_across_a_merge(self):
        # Digests never share an 8-byte prefix; these keys do, so every
        # search below takes the suffix fallback.
        prefix = b"\x42" * 8
        low, high = prefix + b"\x01" * 24, prefix + b"\x09" * 24
        absent = prefix + b"\x05" * 24  # between the two
        # Its suffix heads the next prefix run: a search that overran
        # its own run would report it present.
        overrun = prefix + b"\x0a" * 24
        m = PackedMap(4, merge_threshold=1000)
        m.set(high, b"hhhh")
        m.set(b"\x43" * 8 + b"\x0a" * 24, b"next")
        m.compact()  # high in the base arrays
        m.set(low, b"llll")  # low in the log, merged in below high
        assert (m.get(low), m.get(high)) == (b"llll", b"hhhh")
        m.compact()
        assert list(m.keys())[:2] == [low, high]
        assert (m.get(low), m.get(high)) == (b"llll", b"hhhh")
        assert m.get(absent) is None and m.get(overrun) is None
        assert m.delete(absent) is False and m.delete(overrun) is False
        m.set(low, b"LLLL")  # both replaced in place
        m.set(high, b"HHHH")
        assert (m.get(low), m.get(high)) == (b"LLLL", b"HHHH")
        assert m.delete(low) and m.delete(high)
        assert low not in m and high not in m
        m.compact()
        assert list(m.keys()) == [b"\x43" * 8 + b"\x0a" * 24]

    def test_size_validation(self):
        m = PackedMap(4)
        with pytest.raises(ValueError):
            m.set(b"short", b"abcd")
        with pytest.raises(ValueError):
            m.set(raw(1), b"toolong!!")

    def test_memory_stays_packed(self):
        m = PackedMap(12, merge_threshold=256)
        n = 10_000
        for i in range(n):
            m.set(raw(i), bytes(12))
        m.compact()
        # 44 packed bytes per record plus container overhead.
        assert m.memory_bytes() / n < 60
        # Merged arrays are allocated at their exact size (an
        # array('Q') grown from bytes would add n/2 bytes).
        assert m.memory_bytes() < 44 * n + 512


class TestExpiryWheel:
    def test_tokens_fire_after_slot_elapses(self):
        w = ExpiryWheel(1.0)
        w.schedule(raw(1), 5.2)
        w.schedule(raw(2), 5.9)
        w.schedule(raw(3), 9.0)
        assert list(w.expired(5.5)) == []  # slot 5 not fully elapsed
        assert sorted(w.expired(6.0)) == [raw(1), raw(2)]
        assert list(w.expired(6.0)) == []
        assert list(w.expired(10.0)) == [raw(3)]

    def test_next_deadline(self):
        w = ExpiryWheel(2.0)
        assert w.next_deadline() is None
        w.schedule(raw(1), 7.0)  # slot 3 -> purgeable at 8.0
        assert w.next_deadline() == 8.0

    def test_len_and_clear(self):
        w = ExpiryWheel()
        w.schedule(raw(1), 1.0)
        w.schedule(raw(2), 1.0)
        assert len(w) == 2
        w.clear()
        assert len(w) == 0
        assert list(w.expired(100.0)) == []


class TestCompactFib:
    def make(self, now=None):
        state = {"now": 0.0 if now is None else now}
        fib = CompactFib(clock=lambda: state["now"])
        return fib, state

    def test_dict_surface(self):
        fib, _ = self.make()
        n1, n2 = GdpName(raw(1)), GdpName(raw(2))
        hop = object()
        fib[n1] = (hop, 10.0)
        assert fib[n1] == (hop, 10.0)
        assert fib.get(n2) is None
        assert n1 in fib and n2 not in fib
        assert len(fib) == 1
        assert dict(fib.items()) == {n1: (hop, 10.0)}
        assert list(fib.keys()) == [n1]
        assert fib.pop(n1) == (hop, 10.0)
        assert fib.pop(n1, "dflt") == "dflt"
        with pytest.raises(KeyError):
            fib[n1]

    def test_next_hops_interned(self):
        fib, _ = self.make()
        hop = object()
        for i in range(500):
            fib[GdpName(raw(i))] = (hop, 100.0)
        assert len(fib._hops) == 1
        assert all(node is hop for _, (node, _) in fib.items())

    def test_wheel_purges_expired_entries(self):
        fib, state = self.make()
        hop = object()
        for i in range(100):
            fib[GdpName(raw(i))] = (hop, 10.0 + (i % 3))
        state["now"] = 20.0
        assert fib.maybe_purge() == 100
        assert len(fib) == 0

    def test_router_counts_fib_purges_in_its_scope(self):
        """The router owning a FIB counts what its purges reclaim in
        ``router.fib_purged``."""
        net = SimNetwork()
        router = GdpRouter(net, "r", RoutingDomain("d", clock=lambda: net.sim.now))
        hop = object()
        for i in range(100):
            router.fib[GdpName(raw(i))] = (hop, 10.0 + (i % 3))

        def later():
            yield 20.0
            router._install(GdpName(raw(1000)), hop)  # installs, then purges

        net.sim.run_process(later())
        assert router.metrics.counter("router.fib_purged").value == 100

    def test_refreshed_entry_survives_purge(self):
        fib, state = self.make()
        hop = object()
        name = GdpName(raw(1))
        fib[name] = (hop, 5.0)
        fib[name] = (hop, 50.0)  # lease refresh before expiry
        state["now"] = 10.0
        assert fib.purge_expired() == 0
        assert fib[name] == (hop, 50.0)
        state["now"] = 60.0
        assert fib.purge_expired() == 1
        assert name not in fib

    def test_maybe_purge_is_noop_before_deadline(self):
        fib, state = self.make()
        fib[GdpName(raw(1))] = (object(), 100.0)
        state["now"] = 50.0
        assert fib.maybe_purge() == 0
        assert len(fib) == 1

    def test_clear_resets_wheel(self):
        fib, state = self.make()
        fib[GdpName(raw(1))] = (object(), 5.0)
        fib.clear()
        state["now"] = 10.0
        assert fib.purge_expired() == 0
        assert len(fib) == 0

    def test_bytes_per_entry_bound(self):
        fib, _ = self.make()
        hop = object()
        n = 20_000
        for i in range(n):
            fib[GdpName(raw(i))] = (hop, 1e9)
        fib._map.compact()
        # Packed record is 44 bytes; wheel adds one 32-byte token.
        assert fib.memory_bytes() / n < 120


def digest(label: bytes, i: int) -> bytes:
    return hashlib.sha256(label + b":%d" % i).digest()


class TestMemoryHonesty:
    def test_merge_allocates_a_page_not_a_second_table(self):
        # Everything the map holds is traced, so the peak over a merge
        # counts what the merge allocates beyond what it frees.
        tracemalloc.start()
        try:
            m = PackedMap(12)
            for i in range(50_000):
                m.set(digest(b"merge", i), bytes(12))
            size = m.memory_bytes()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            m.compact()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(m) == 50_000
        assert peak < size / 4

    def test_fib_memory_bytes_matches_what_it_allocates(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fib = CompactFib()
            hop = object()
            for i in range(20_000):
                fib[GdpName(digest(b"fib", i))] = (hop, 100.5 + i % 50)
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert abs(fib.memory_bytes() - traced) <= 0.15 * traced
