"""Property tests: PackedMap behaves as a dict of 32-byte keys.

Random set / get / delete / in / compact sequences run against a plain
dict model with merge thresholds from 1 to 64, over three key families:
SHA-256 digests (every prefix distinct), small big-endian ints (every
8-byte prefix shared) and digests forced onto a few shared prefixes.
After each compact the base pages must hold the keys in byte order.
CompactFib's lease purge runs against a dict of expiries over the same
families, with pages a few keys long so that merges cut them.
"""

import hashlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.naming import GdpName
from repro.routing import fib
from repro.routing.fib import CompactFib, PackedMap

KEY_IDS = 48
SHARED_PREFIXES = (b"\x00" * 8, b"\x7f" * 8, b"\xff" * 8)


def digest_key(i: int) -> bytes:
    return hashlib.sha256(b"packed-map:%d" % i).digest()


def int_key(i: int) -> bytes:
    return i.to_bytes(32, "big")


def shared_prefix_key(i: int) -> bytes:
    # Four suffixes, each under all three prefixes: a search that
    # overruns its prefix run finds an equal suffix in the next one.
    prefix, suffix_id = SHARED_PREFIXES[i % 3], i // 3 % 4
    return prefix + digest_key(suffix_id)[8:]


FAMILIES = (digest_key, int_key, shared_prefix_key)

OPS = st.lists(
    st.tuples(
        st.sampled_from(("set", "get", "delete", "in", "compact")),
        st.integers(0, KEY_IDS - 1),
        st.binary(min_size=4, max_size=4),
    ),
    max_size=200,
)


def check_ops(family, threshold, ops):
    m = PackedMap(4, merge_threshold=threshold)
    model: dict[bytes, bytes] = {}
    for op, key_id, value in ops:
        key = family(key_id)
        if op == "set":
            m.set(key, value)
            model[key] = value
        elif op == "get":
            assert m.get(key) == model.get(key)
        elif op == "delete":
            assert m.delete(key) == (key in model)
            model.pop(key, None)
        elif op == "in":
            assert (key in m) == (key in model)
        else:
            m.compact()
            assert list(m.keys()) == sorted(model)
            assert dict(m.items()) == model
            for probe in map(family, range(KEY_IDS)):  # absent ones too
                assert m.get(probe) == model.get(probe)
        assert len(m) == len(model)
    assert dict(m.items()) == model
    assert sorted(m.keys()) == sorted(model)


class TestPackedMapMatchesDict:
    @given(st.sampled_from(FAMILIES), st.integers(1, 64), OPS)
    @settings(max_examples=300, deadline=None)
    def test_ops_match_dict_model(self, family, threshold, ops):
        check_ops(family, threshold, ops)

    @given(st.sampled_from(FAMILIES), st.integers(1, 64), st.integers(1, 4), OPS)
    @settings(max_examples=300, deadline=None)
    def test_ops_match_dict_model_over_small_pages(
        self, family, threshold, page_keys, ops
    ):
        """Pages of a few keys: merges cut pages, never inside a run of
        keys sharing a prefix."""
        with mock.patch.object(fib, "PAGE_KEYS", page_keys):
            check_ops(family, threshold, ops)


#: (op, key id, lease slots ahead of now, or the seconds a purge
#: advances); a dozen names, so that leases are often refreshed
FIB_OPS = st.lists(
    st.tuples(
        st.sampled_from(("set", "set", "pop", "get", "purge")),
        st.integers(0, 11),
        st.integers(-1, 4),
    ),
    max_size=150,
)


class TestCompactFibPurge:
    @given(st.sampled_from(FAMILIES), st.integers(1, 64), st.integers(1, 4), FIB_OPS)
    @settings(max_examples=300, deadline=None)
    def test_purge_reclaims_exactly_the_expired_names(
        self, family, threshold, page_keys, ops
    ):
        """Leases end half-way through a slot and purges run on whole
        seconds, so a name is due exactly when its lease has ended: each
        purge must reclaim every expired name and nothing else, however
        often a name was refreshed, moved earlier, dropped or re-added."""
        clock = {"now": 0.0}
        table = CompactFib(clock=lambda: clock["now"])
        table._map.merge_threshold = threshold
        hop = object()
        model: dict[GdpName, float] = {}
        with mock.patch.object(fib, "PAGE_KEYS", page_keys):
            for op, key_id, slots in ops:
                name = GdpName(family(key_id))
                if op == "set":
                    expiry = clock["now"] + slots + 0.5
                    table[name] = (hop, expiry)
                    model[name] = expiry
                elif op == "pop":
                    expected = (hop, model.pop(name)) if name in model else None
                    assert table.pop(name) == expected
                elif op == "get":
                    expected = (hop, model[name]) if name in model else None
                    assert table.get(name) == expected
                else:
                    clock["now"] += max(slots, 0)
                    expired = {n for n, e in model.items() if e <= clock["now"]}
                    assert table.purge_expired() == len(expired)
                    for n in expired:
                        del model[n]
                        assert n not in table
                assert len(table) == len(model)
        assert dict(table.items()) == {n: (hop, e) for n, e in model.items()}
