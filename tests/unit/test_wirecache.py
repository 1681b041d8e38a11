"""Evidence-blob interning: repeated certs encode once, decode once."""

import pytest

from repro.crypto import SigningKey
from repro.delegation import AdCert, RtCert, ServiceChain
from repro.errors import AdvertisementError
from repro.naming import (
    make_capsule_metadata,
    make_router_metadata,
    make_server_metadata,
)
from repro.routing.glookup import RouteEntry
from repro.routing.wirecache import (
    clear_intern_caches,
    decode_blob,
    encode_blob,
    intern_stats,
)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_intern_caches()
    yield
    clear_intern_caches()


@pytest.fixture()
def world():
    owner = SigningKey.from_seed(b"wc-owner")
    writer = SigningKey.from_seed(b"wc-writer")
    server = SigningKey.from_seed(b"wc-server")
    router = SigningKey.from_seed(b"wc-router")
    server_md = make_server_metadata(server, server.public)
    router_md = make_router_metadata(router, router.public)
    rtcert = RtCert.issue(server, server_md.name, router_md.name)

    def entry(i):
        capsule_md = make_capsule_metadata(
            owner, writer.public, extra={"seq": i}
        )
        adcert = AdCert.issue(owner, capsule_md.name, server_md.name)
        chain = ServiceChain(capsule_md, adcert, server_md)
        return RouteEntry(
            capsule_md.name,
            router=router_md.name,
            principal=server_md.name,
            principal_metadata=server_md,
            rtcert=rtcert,
            chain=chain,
            router_metadata=router_md,
        )

    return {"entry": entry, "server_md": server_md, "rtcert": rtcert}


class TestEncodeInterning:
    def test_repeated_evidence_encodes_once(self, world):
        """A domain advertising many names shares one server metadata /
        RtCert — their blobs must be produced by one encode, not n."""
        n = 50
        wires = [world["entry"](i).to_wire() for i in range(n)]
        stats = intern_stats()
        # Per entry: 1 chain (unique) + shared principal_metadata,
        # rtcert, router_metadata.  Shared objects miss once each.
        assert stats["encode_misses"] <= n + 3
        assert stats["encode_hits"] >= 3 * (n - 1)
        # The shared blobs are literally the same bytes object.
        assert len({id(w["principal_metadata"]) for w in wires}) == 1
        assert len({id(w["rtcert"]) for w in wires}) == 1

    def test_blob_is_stable_across_calls(self, world):
        md = world["server_md"]
        assert encode_blob("metadata", md) is encode_blob("metadata", md)


class TestDecodeInterning:
    def test_repeated_blobs_decode_to_shared_objects(self, world):
        n = 20
        wires = [world["entry"](i).to_wire() for i in range(n)]
        clear_intern_caches()  # simulate a different process decoding
        entries = [RouteEntry.from_wire(w) for w in wires]
        principals = {id(e.principal_metadata) for e in entries}
        rtcerts = {id(e.rtcert) for e in entries}
        assert len(principals) == 1
        assert len(rtcerts) == 1
        stats = intern_stats()
        assert stats["decode_hits"] >= 2 * (n - 1)
        for entry in entries:
            entry.verify()

    def test_decode_blob_kind_namespacing(self, world):
        from repro import encoding

        blob = encoding.encode(world["rtcert"].to_wire())
        a = decode_blob("rtcert", blob, lambda w: ("A", tuple(sorted(w))))
        b = decode_blob("other", blob, lambda w: ("B", tuple(sorted(w))))
        assert a[0] == "A" and b[0] == "B"

    def test_wire_roundtrip_equality(self, world):
        entry = world["entry"](0)
        clone = RouteEntry.from_wire(entry.to_wire())
        assert clone == entry
        assert clone.name == entry.name
        clone.verify()
        # Only the emitted form decodes: a nested-dict sub-wire or an
        # int-millisecond expiry is malformed input.
        wire = entry.to_wire()
        for bad in (
            {"principal_metadata": entry.principal_metadata.to_wire()},
            {"expires_at": 8001},
        ):
            with pytest.raises(AdvertisementError):
                RouteEntry.from_wire({**wire, **bad})
