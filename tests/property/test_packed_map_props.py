"""Property tests: PackedMap behaves as a dict of 32-byte keys.

Random set / get / delete / in / compact sequences run against a plain
dict model with merge thresholds from 1 to 64, over three key families:
SHA-256 digests (every prefix distinct), small big-endian ints (every
8-byte prefix shared) and digests forced onto a few shared prefixes.
After each compact the base arrays must hold the keys in byte order.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.fib import PackedMap

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


class TestPackedMapMatchesDict:
    @given(st.sampled_from(FAMILIES), st.integers(1, 64), OPS)
    @settings(max_examples=300, deadline=None)
    def test_ops_match_dict_model(self, family, threshold, ops):
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
