"""The crypto memoization layer: LRU semantics, signature-cache safety
("a cache must never turn a forged signature into a hit"), the
record-digest cache, counter wiring, and the one-encode-per-record
regression guard, the key intern and the verified-metadata memo."""

import hashlib

import pytest

from repro.capsule.records import Record, metadata_anchor
from repro.crypto import cache, ec, ecdsa
from repro.crypto.keys import SigningKey, VerifyingKey
from repro.delegation import AdCert, ServiceChain
from repro.errors import (
    DelegationError,
    IntegrityError,
    NameError_,
    SignatureError,
)
from repro.naming import (
    GdpName,
    Metadata,
    make_capsule_metadata,
    make_server_metadata,
)
from repro.routing.pdu import T_RESPONSE, Pdu
from repro.server.secure import sign_response, verify_signed_response

NAME = GdpName(b"\x33" * 32)


@pytest.fixture(autouse=True)
def clean_cache():
    cache.reset()
    yield
    cache.reset()


class TestLruCache:
    def test_put_get(self):
        lru = cache.LruCache(4)
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert lru.get("missing") is None

    def test_eviction_order(self):
        lru = cache.LruCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)  # evicts "a", the oldest
        assert lru.get("a") is None
        assert lru.get("b") == 2
        assert lru.get("c") == 3

    def test_get_refreshes_recency(self):
        lru = cache.LruCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # "a" is now most recent
        lru.put("c", 3)  # evicts "b"
        assert lru.get("a") == 1
        assert lru.get("b") is None

    def test_bounded(self):
        lru = cache.LruCache(8)
        for i in range(100):
            lru.put(i, i)
        assert len(lru) == 8

    def test_overwrite_same_key(self):
        lru = cache.LruCache(2)
        lru.put("a", 1)
        lru.put("a", 2)
        assert lru.get("a") == 2
        assert len(lru) == 1


class TestSignatureCache:
    def test_sign_primes_cache(self):
        key = SigningKey.from_seed(b"cache-prime")
        sig = key.sign(b"hello")
        before = cache.counters()
        assert key.public.verify(b"hello", sig)
        after = cache.counters()
        # The verify hit the cache primed by sign — no real ladder ran.
        assert after["crypto.verify_cached"] == before["crypto.verify_cached"] + 1
        assert after["crypto.verify"] == before["crypto.verify"]

    def test_repeat_verification_cached(self):
        key = SigningKey.from_seed(b"cache-repeat")
        sig = key.sign(b"msg")
        cache.reset()  # drop the sign-time priming
        assert key.public.verify(b"msg", sig)
        assert cache.counters()["crypto.verify"] == 1
        for _ in range(5):
            assert key.public.verify(b"msg", sig)
        after = cache.counters()
        assert after["crypto.verify"] == 1
        assert after["crypto.verify_cached"] == 5

    def test_forged_signature_never_hits(self):
        key = SigningKey.from_seed(b"cache-forge")
        sig = bytearray(key.sign(b"msg"))
        sig[5] ^= 0x01
        forged = bytes(sig)
        cache.reset()
        for _ in range(3):
            assert not key.public.verify(b"msg", forged)
        after = cache.counters()
        # Every attempt ran the real ladder: failures are never cached.
        assert after["crypto.verify"] == 3
        assert after["crypto.verify_cached"] == 0

    def test_tampered_message_never_hits(self):
        key = SigningKey.from_seed(b"cache-tamper")
        sig = key.sign(b"genuine")
        assert key.public.verify(b"genuine", sig)  # cached success
        assert not key.public.verify(b"forged!", sig)
        assert not key.public.verify(b"forged!", sig)
        assert cache.counters()["crypto.verify"] == 2

    def test_strict_mode_not_bypassed_by_cached_success(self):
        # A high-S signature that verified (and was cached) in permissive
        # mode must STILL be rejected by require_low_s: the strictness
        # check runs before the cache lookup.
        key = SigningKey.from_seed(b"cache-strict")
        sig = key.sign(b"msg")
        s = int.from_bytes(sig[32:], "big")
        high = sig[:32] + (ec.N - s).to_bytes(32, "big")
        assert key.public.verify(b"msg", high)  # permissive: ok, cached
        assert not key.public.verify(b"msg", high, require_low_s=True)

    def test_cache_keyed_on_public_key(self):
        key_a = SigningKey.from_seed(b"cache-key-a")
        key_b = SigningKey.from_seed(b"cache-key-b")
        sig = key_a.sign(b"msg")
        assert key_a.public.verify(b"msg", sig)
        assert not key_b.public.verify(b"msg", sig)

    def test_disabled_accel_bypasses_cache(self):
        key = SigningKey.from_seed(b"cache-disabled")
        cache.set_accel_enabled(False)
        try:
            sig = key.sign(b"msg")
            cache.reset()
            assert key.public.verify(b"msg", sig)
            assert key.public.verify(b"msg", sig)
            after = cache.counters()
            assert after["crypto.verify"] == 2
            assert after["crypto.verify_cached"] == 0
        finally:
            cache.set_accel_enabled(True)

    def test_raw_cache_api_semantics(self):
        pub, digest, sig = b"\x02" + b"\x01" * 32, b"\x0a" * 32, b"\x0b" * 64
        assert not cache.verify_cache_hit(pub, digest, sig)
        cache.remember_verified(pub, digest, sig)
        assert cache.verify_cache_hit(pub, digest, sig)
        # Any component changing the triple misses.
        assert not cache.verify_cache_hit(pub, digest, b"\x0c" * 64)
        assert not cache.verify_cache_hit(pub, b"\x0d" * 32, sig)


class TestRecordDigestCache:
    def test_one_encode_per_record(self):
        # Regression guard (counter-based): constructing a record encodes
        # its header exactly once; every later digest consumer — header
        # verification, proof walks, replica merges — must hit the cache.
        record = Record(NAME, 1, b"payload", [metadata_anchor(NAME)])
        baseline = cache.counters()["crypto.encode"]
        assert record.digest  # cached at construction
        Record.verify_header(NAME, record.header_wire(), record.digest)
        rebuilt = Record.from_wire(NAME, record.to_wire())
        assert rebuilt.digest == record.digest
        after = cache.counters()
        assert after["crypto.encode"] == baseline
        assert after["crypto.encode_cached"] >= 2

    def test_proof_walks_reuse_record_encodes(self):
        # Chain walks (build + verify + re-verify of a position proof)
        # must not re-encode records that were already digested at
        # construction — the whole point of routing _header_digest
        # through the content-keyed cache.
        from repro.capsule import CapsuleWriter, DataCapsule
        from repro.capsule.proofs import build_position_proof
        from repro.naming import make_capsule_metadata

        owner = SigningKey.from_seed(b"proof-owner")
        writer_key = SigningKey.from_seed(b"proof-writer")
        metadata = make_capsule_metadata(
            owner, writer_key.public, pointer_strategy="chain"
        )
        capsule = DataCapsule(metadata)
        writer = CapsuleWriter(capsule.metadata, writer_key)
        for i in range(8):
            capsule.admit(*writer.append_batch([b"r%d" % i]))
        encodes = cache.counters()["crypto.encode"]
        proof = build_position_proof(capsule, 2)
        proof.verify(capsule.name, writer_key.public, expected_seqno=2)
        proof.verify(capsule.name, writer_key.public, expected_seqno=2)
        assert cache.counters()["crypto.encode"] == encodes

    def test_distinct_records_distinct_encodes(self):
        before = cache.counters()["crypto.encode"]
        Record(NAME, 1, b"a", [metadata_anchor(NAME)])
        Record(NAME, 1, b"b", [metadata_anchor(NAME)])
        assert cache.counters()["crypto.encode"] == before + 2

    def test_tampered_header_never_inherits_digest(self):
        record = Record(NAME, 1, b"payload", [metadata_anchor(NAME)])
        header = record.header_wire()
        header["payload_hash"] = hashlib.sha256(b"evil").digest()
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError):
            Record.verify_header(NAME, header, record.digest)

    def test_unhashable_pointers_bypass_cache(self):
        # _freeze refuses anything not hashable-by-content; the digest is
        # still computed (uncached) rather than raising.
        digest = cache.record_digest(
            NAME.raw, 1, b"\x00" * 32, [[1, bytearray(b"x")]]
        )
        assert len(digest) == 32


def malformed_keys():
    """One encoding per way ``from_bytes`` must refuse."""
    good = SigningKey.from_seed(b"intern-malformed").public.to_bytes()
    return {
        "bad prefix": b"\x05" + good[1:],
        "x >= P": b"\x02" + ec.P.to_bytes(32, "big"),
        "off curve": b"\x02" + (1).to_bytes(32, "big"),  # x=1: no such y
        "wrong length": good[:-1],
        "infinity": b"\x00",
    }


class TestKeyIntern:
    def test_interned_equals_fresh_decode(self):
        encoded = SigningKey.from_seed(b"intern-a").public.to_bytes()
        first = VerifyingKey.from_bytes(encoded)
        again = VerifyingKey.from_bytes(bytearray(encoded))
        assert again is first  # decoded once
        cache.set_accel_enabled(False)
        try:
            fresh = VerifyingKey.from_bytes(encoded)
        finally:
            cache.set_accel_enabled(True)
        assert fresh is not first
        assert fresh == first and fresh.point == first.point

    @pytest.mark.parametrize("case", sorted(malformed_keys()))
    def test_malformed_raises_before_and_after_a_hit(self, case):
        bad = malformed_keys()[case]
        good = SigningKey.from_seed(b"intern-malformed").public.to_bytes()
        for _ in range(2):
            with pytest.raises(SignatureError):
                VerifyingKey.from_bytes(bad)
            VerifyingKey.from_bytes(good)  # warm the neighbouring entry
        assert cache._KEYS.get(bad) is None

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(cache._KEYS, "maxsize", 4)
        for i in range(12):
            encoded = SigningKey.from_seed(b"intern-%d" % i).public.to_bytes()
            VerifyingKey.from_bytes(encoded)
        assert len(cache._KEYS) == 4


class TestVerifiedMetadataMemo:
    OWNER = SigningKey.from_seed(b"memo-owner")

    def metadata(self, label="a"):
        return make_server_metadata(
            self.OWNER, self.OWNER.public, extra={"label": label}
        )

    def test_second_verify_skips_encode_and_signature(self):
        metadata = self.metadata()
        received = Metadata.from_wire(metadata.to_wire())
        received.verify()
        before = cache.counters()
        Metadata.from_wire(metadata.to_wire()).verify()
        # in front of the signature cache: neither counter moves
        assert cache.counters() == before
        assert len(cache._METADATA) == 1

    def test_forged_signature_never_memoised(self):
        wire = self.metadata().to_wire()
        wire["signature"] = bytes(64)
        for _ in range(3):
            with pytest.raises(SignatureError):
                Metadata.from_wire(wire).verify()
        assert len(cache._METADATA) == 0

    def test_forgery_misses_beside_a_warm_genuine_entry(self):
        genuine = self.metadata()
        genuine.verify()
        other_signature = self.metadata("b").signature
        forged = Metadata(genuine.kind, genuine.properties, other_signature)
        assert forged.name == genuine.name
        for _ in range(2):
            with pytest.raises(SignatureError):
                forged.verify()

    def test_flipped_property_byte_changes_name_and_misses(self):
        genuine = self.metadata()
        genuine.verify()
        properties = dict(genuine.properties, label="b")
        tampered = Metadata(genuine.kind, properties, genuine.signature)
        assert tampered.name != genuine.name
        for _ in range(2):
            with pytest.raises(SignatureError):
                tampered.verify()

    def test_expected_name_checked_on_every_call(self):
        metadata = self.metadata()
        metadata.verify()
        for _ in range(2):
            with pytest.raises(NameError_):
                metadata.verify(expected_name=NAME)
        metadata.verify(expected_name=metadata.name)

    def test_disabled_accel_bypasses_and_clears(self):
        metadata = self.metadata()
        metadata.verify()
        VerifyingKey.from_bytes(self.OWNER.public.to_bytes())
        assert len(cache._METADATA) == 1 and len(cache._KEYS) >= 1
        cache.set_accel_enabled(False)
        try:
            assert len(cache._METADATA) == 0 and len(cache._KEYS) == 0
            metadata.verify()
            metadata.verify()
            assert len(cache._METADATA) == 0 and len(cache._KEYS) == 0
        finally:
            cache.set_accel_enabled(True)

    def test_reset_clears(self):
        self.metadata().verify()
        cache.reset()
        assert len(cache._METADATA) == 0 and len(cache._KEYS) == 0

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(cache._METADATA, "maxsize", 3)
        for i in range(8):
            self.metadata(str(i)).verify()
        assert len(cache._METADATA) == 3


class TestWarmCachesStillCheckEverything:
    """The checks the memos do *not* cover run on every presentation:
    each rejection repeats identically once every cache is warm."""

    CLIENT = GdpName(b"\xc1" * 32)

    @pytest.fixture()
    def world(self):
        owner = SigningKey.from_seed(b"warm-owner")
        server = SigningKey.from_seed(b"warm-server")
        capsule_md = make_capsule_metadata(owner, owner.public)
        server_md = make_server_metadata(server, server.public)

        def response(corr_id, *, capsule=capsule_md, expires_at=None):
            adcert = AdCert.issue(
                owner, capsule.name, server_md.name, expires_at=expires_at
            )
            chain = ServiceChain(capsule, adcert, server_md)
            wrapped = sign_response(
                server, server_md, chain, self.CLIENT, corr_id, {"ok": True}
            )
            # as the client receives it: shipped, then decoded
            reply = Pdu(server_md.name, self.CLIENT, T_RESPONSE, wrapped, corr_id)
            return Pdu.decode_wire(reply.encode_wire()).payload

        warm = response(1)
        for _ in range(2):  # every memo now holds this evidence
            verify_signed_response(
                warm, client=self.CLIENT, corr_id=1, capsule=capsule_md.name
            )
        return owner, capsule_md, response

    def rejected_twice(self, error, wrapped, **binding):
        for _ in range(2):
            with pytest.raises(error):
                verify_signed_response(
                    wrapped, client=self.CLIENT, **binding
                )

    def test_forged_metadata_signature(self, world):
        _, capsule_md, response = world
        wrapped = response(2)
        wrapped["auth"]["server_metadata"]["signature"] = bytes(64)
        self.rejected_twice(
            SignatureError, wrapped, corr_id=2, capsule=capsule_md.name
        )

    def test_expired_adcert(self, world):
        _, capsule_md, response = world
        wrapped = response(3, expires_at=10.0)
        binding = dict(corr_id=3, capsule=capsule_md.name)
        verify_signed_response(wrapped, client=self.CLIENT, now=9.0, **binding)
        self.rejected_twice(DelegationError, wrapped, now=11.0, **binding)

    def test_chain_for_another_capsule(self, world):
        owner, capsule_md, response = world
        other = make_capsule_metadata(owner, owner.public, extra={"n": 2})
        wrapped = response(4, capsule=other)
        self.rejected_twice(
            IntegrityError, wrapped, corr_id=4, capsule=capsule_md.name
        )

    def test_replayed_corr_id(self, world):
        _, capsule_md, response = world
        wrapped = response(5)
        binding = dict(capsule=capsule_md.name)
        verify_signed_response(wrapped, client=self.CLIENT, corr_id=5, **binding)
        self.rejected_twice(SignatureError, wrapped, corr_id=6, **binding)


class TestCounterWiring:
    def test_sign_counted(self):
        key = SigningKey.from_seed(b"counter-sign")
        before = cache.counters()["crypto.sign"]
        key.sign(b"one")
        key.sign(b"two")
        assert cache.counters()["crypto.sign"] == before + 2

    def test_metrics_sink_mirroring(self):
        from repro.runtime.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cache.bind_metrics(registry.node("crypto"))
        try:
            key = SigningKey.from_seed(b"counter-sink")
            sig = key.sign(b"msg")
            key.public.verify(b"msg", sig)
            snapshot = registry.snapshot()["crypto"]
            assert snapshot["crypto.sign"] == 1
            assert snapshot["crypto.verify_cached"] == 1
        finally:
            cache.bind_metrics(None)

    def test_ecdsa_module_verify_not_double_counted(self):
        # Direct ecdsa.verify (below the key layer) is uncounted; only
        # the key layer counts, so subsystem totals stay meaningful.
        key = SigningKey.from_seed(b"counter-raw")
        sig = key.sign(b"msg")
        cache.reset()
        pub = ec.decode_point(key.public.to_bytes())
        assert ecdsa.verify(pub, b"msg", sig)
        assert cache.counters()["crypto.verify"] == 0
