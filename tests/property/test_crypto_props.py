"""Property tests over the crypto substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import MerkleTree, SigningKey, VerifyingKey, chacha
from repro.crypto import cache, ec
from repro.errors import SignatureError


# One fixed key pair: keygen is the expensive part, the properties are
# about messages.
_KEY = SigningKey.from_seed(b"prop-key")
_OTHER = SigningKey.from_seed(b"prop-other")


class TestEcdsaProperties:
    @given(st.binary(max_size=256))
    @settings(max_examples=20, deadline=None)
    def test_sign_verify_roundtrip(self, message):
        assert _KEY.public.verify(message, _KEY.sign(message))

    @given(st.binary(min_size=1, max_size=64), st.integers(0, 63))
    @settings(max_examples=20, deadline=None)
    def test_any_bitflip_breaks_signature(self, message, byte_index):
        signature = bytearray(_KEY.sign(message))
        signature[byte_index % 64] ^= 0x01
        assert not _KEY.public.verify(message, bytes(signature))

    @given(st.binary(max_size=64))
    @settings(max_examples=15, deadline=None)
    def test_wrong_key_never_verifies(self, message):
        assert not _OTHER.public.verify(message, _KEY.sign(message))


class TestPointProperties:
    @given(st.integers(min_value=1, max_value=ec.N - 1))
    @settings(max_examples=25, deadline=None)
    def test_scalar_points_on_curve(self, k):
        assert ec.is_on_curve(ec.scalar_mult(k, ec.GENERATOR))

    @given(st.integers(min_value=1, max_value=ec.N - 1))
    @settings(max_examples=20, deadline=None)
    def test_point_encoding_roundtrip(self, k):
        point = ec.scalar_mult(k, ec.GENERATOR)
        assert ec.decode_point(ec.encode_point(point)) == point


def _decode(data):
    """``from_bytes`` as an outcome: the key's point, or the refusal."""
    try:
        return VerifyingKey.from_bytes(data).point
    except SignatureError:
        return SignatureError


class TestKeyInternProperties:
    #: compressed-looking encodings (about half name a curve point),
    #: genuine keys, and arbitrary junk
    encodings = st.one_of(
        st.tuples(
            st.sampled_from([b"\x02", b"\x03"]),
            st.binary(min_size=32, max_size=32),
        ).map(b"".join),
        st.integers(1, ec.N - 1).map(
            lambda k: ec.encode_point(ec.scalar_mult(k, ec.GENERATOR))
        ),
        st.binary(max_size=66),
    )

    @given(encodings)
    @settings(max_examples=60, deadline=None)
    def test_interned_from_bytes_is_a_fresh_decode(self, data):
        cold, warm = _decode(data), _decode(data)
        cache.set_accel_enabled(False)
        try:
            fresh = _decode(data)
        finally:
            cache.set_accel_enabled(True)
        assert cold == warm == fresh
        if fresh is SignatureError:
            assert cache._KEYS.get(bytes(data)) is None


class TestAccelBitIdentity:
    """The accelerated EC paths (fixed-base comb, per-point combs, the
    double-scalar verify shape) must be bit-identical to the naive
    double-and-add reference — checked over 1000+ seeded random cases.

    A fixed seed keeps the suite deterministic; the volume is the point
    (the comb recoding has digit-boundary edge cases that only dense
    random sampling reaches)."""

    def test_base_mult_500_random_scalars(self):
        rng = __import__("random").Random(0x6D9A01)
        for _ in range(500):
            k = rng.randrange(1, ec.N)
            assert ec.scalar_mult(k, ec.GENERATOR) == ec.scalar_mult_naive(
                k, ec.GENERATOR
            ), f"base comb diverged at k={k:#x}"

    def test_point_mult_200_random_cases(self):
        rng = __import__("random").Random(0x6D9A02)
        ec.clear_point_tables()
        points = [
            ec.scalar_mult(rng.randrange(1, ec.N), ec.GENERATOR)
            for _ in range(5)
        ]
        for i in range(200):
            point = points[i % len(points)]  # reuse → promotion kicks in
            k = rng.randrange(1, ec.N)
            assert ec.scalar_mult(k, point) == ec.scalar_mult_naive(
                k, point
            ), f"point comb diverged at k={k:#x}"

    def test_double_scalar_300_random_cases(self):
        rng = __import__("random").Random(0x6D9A03)
        ec.clear_point_tables()
        points = [
            ec.scalar_mult(rng.randrange(1, ec.N), ec.GENERATOR)
            for _ in range(4)
        ]
        for i in range(300):
            point = points[i % len(points)]
            u1 = rng.randrange(0, ec.N)
            u2 = rng.randrange(0, ec.N)
            expected = ec.point_add(
                ec.scalar_mult_naive(u1, ec.GENERATOR),
                ec.scalar_mult_naive(u2, point),
            )
            assert ec.double_scalar_base_mult(u1, u2, point) == expected, (
                f"double-scalar diverged at u1={u1:#x} u2={u2:#x}"
            )

    def test_sign_verify_cross_modes(self):
        # Signatures made with acceleration on must verify with it off
        # and vice versa — the modes share one wire format.
        from repro.crypto import cache

        rng = __import__("random").Random(0x6D9A04)
        for i in range(25):
            key = SigningKey.from_seed(b"xmode-%d" % i)
            message = rng.randbytes(rng.randrange(0, 64))
            fast_sig = key.sign(message)
            cache.set_accel_enabled(False)
            try:
                naive_sig = key.sign(message)
                assert naive_sig == fast_sig  # RFC 6979: fully deterministic
                assert key.public.verify(message, fast_sig)
            finally:
                cache.set_accel_enabled(True)
            assert key.public.verify(message, naive_sig)


class TestChaChaProperties:
    @given(st.binary(max_size=2048), st.binary(min_size=32, max_size=32),
           st.binary(min_size=12, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_xor_involution(self, data, key, nonce):
        once = chacha.chacha20_xor(key, nonce, data)
        assert chacha.chacha20_xor(key, nonce, once) == data
        assert len(once) == len(data)

    @given(st.binary(max_size=512), st.binary(min_size=32, max_size=32),
           st.binary(max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_seal_open_roundtrip(self, plaintext, key, aad):
        assert chacha.open_sealed(key, chacha.seal(key, plaintext, aad), aad) == plaintext

    @given(st.binary(max_size=128), st.binary(min_size=32, max_size=32),
           st.integers(min_value=0, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_seal_tamper_always_detected(self, plaintext, key, position):
        import pytest

        from repro.errors import IntegrityError

        sealed = bytearray(chacha.seal(key, plaintext))
        sealed[position % len(sealed)] ^= 0x01
        with pytest.raises(IntegrityError):
            chacha.open_sealed(key, bytes(sealed))


class TestMerkleProperties:
    @given(st.lists(st.binary(max_size=16), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_every_leaf_provable(self, leaves):
        tree = MerkleTree(leaves)
        root = tree.root()
        for index, leaf in enumerate(leaves):
            tree.prove(index).verify(leaf, root)

    @given(st.lists(st.binary(max_size=8), min_size=2, max_size=30),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_wrong_leaf_never_verifies(self, leaves, data):
        import pytest

        from repro.errors import IntegrityError

        tree = MerkleTree(leaves)
        index = data.draw(st.integers(0, len(leaves) - 1))
        forged = leaves[index] + b"!"
        with pytest.raises(IntegrityError):
            tree.prove(index).verify(forged, tree.root())

    @given(st.lists(st.binary(max_size=8), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_append_preserves_prefix_roots(self, leaves):
        tree = MerkleTree(leaves)
        roots = [tree.root(size) for size in range(len(leaves) + 1)]
        tree.append(b"new")
        for size, root in enumerate(roots):
            assert tree.root(size) == root
