"""Naming catalogs as DataCapsules (§VII)."""

import pytest

from repro.crypto import SigningKey
from repro.delegation import AdCert, RtCert, ServiceChain
from repro.errors import AdvertisementError
from repro.naming import (
    make_capsule_metadata,
    make_router_metadata,
    make_server_metadata,
)
from repro.routing.catalog import CatalogBuilder, import_catalog, replay_catalog
from repro.routing.glookup import GLookupService


@pytest.fixture()
def world():
    owner = SigningKey.from_seed(b"cat-owner")
    writer = SigningKey.from_seed(b"cat-writer")
    server = SigningKey.from_seed(b"cat-server")
    router = SigningKey.from_seed(b"cat-router")
    server_md = make_server_metadata(server, server.public)
    router_md = make_router_metadata(router, router.public)
    capsule_md = make_capsule_metadata(owner, writer.public)
    adcert = AdCert.issue(owner, capsule_md.name, server_md.name)
    chain = ServiceChain(capsule_md, adcert, server_md)
    rtcert = RtCert.issue(server, server_md.name, router_md.name)
    builder = CatalogBuilder(server_md, server)
    return {
        "owner": owner,
        "server": server,
        "server_md": server_md,
        "router_md": router_md,
        "capsule_md": capsule_md,
        "chain": chain,
        "rtcert": rtcert,
        "builder": builder,
    }


class TestCatalogBuild:
    def test_advertise_and_replay(self, world):
        b = world["builder"]
        b.advertise_self(world["rtcert"], expires_at=100.0)
        b.advertise_capsule(world["chain"], world["rtcert"], expires_at=100.0)
        view = replay_catalog(b.capsule)
        assert set(view) == {world["server_md"].name, world["capsule_md"].name}
        entry = view[world["capsule_md"].name]
        assert entry.expires_at == 100.0
        assert entry.chain.capsule == world["capsule_md"].name

    @pytest.mark.parametrize("expires_at", [100.0007, -0.001])
    def test_expiry_replays_exactly(self, world, expires_at):
        """Sub-millisecond and sub-zero expiries survive the catalog:
        no rounding to milliseconds, no collision with "never"."""
        b = world["builder"]
        b.advertise_capsule(world["chain"], world["rtcert"], expires_at=expires_at)
        assert replay_catalog(b.capsule)[world["capsule_md"].name].expires_at == expires_at
        b.extend_all(expires_at * 2)
        assert replay_catalog(b.capsule)[world["capsule_md"].name].expires_at == expires_at * 2

    def test_withdraw(self, world):
        b = world["builder"]
        b.advertise_capsule(world["chain"], world["rtcert"])
        b.withdraw(world["capsule_md"].name)
        view = replay_catalog(b.capsule)
        assert world["capsule_md"].name not in view

    def test_extend_all_defers_group(self, world):
        b = world["builder"]
        b.advertise_self(world["rtcert"], expires_at=50.0)
        b.advertise_capsule(world["chain"], world["rtcert"], expires_at=60.0)
        b.extend_all(500.0)
        view = replay_catalog(b.capsule)
        assert all(e.expires_at == 500.0 for e in view.values())

    def test_extend_does_not_resurrect_withdrawn(self, world):
        b = world["builder"]
        b.advertise_capsule(world["chain"], world["rtcert"], expires_at=50.0)
        b.withdraw(world["capsule_md"].name)
        b.extend_all(500.0)
        view = replay_catalog(b.capsule)
        assert world["capsule_md"].name not in view

    def test_incremental_replay(self, world):
        b = world["builder"]
        b.advertise_self(world["rtcert"], expires_at=50.0)
        view = replay_catalog(b.capsule)
        mark = b.capsule.last_seqno
        b.advertise_capsule(world["chain"], world["rtcert"], expires_at=50.0)
        incremental = replay_catalog(
            b.capsule, from_seqno=mark + 1, into=view
        )
        full = replay_catalog(b.capsule)
        assert set(incremental) == set(full)

    def test_catalog_is_signed_by_advertiser(self, world):
        """The catalog capsule's writer key is the advertiser's key —
        tampering with a record breaks verification."""
        b = world["builder"]
        b.advertise_self(world["rtcert"])
        assert b.capsule.writer_key == world["server"].public
        assert b.capsule.verify_history() >= 1

    def test_garbage_record_rejected(self, world):
        b = world["builder"]
        b._writer.append(b"not-an-advert")
        with pytest.raises(AdvertisementError):
            replay_catalog(b.capsule)


class TestGLookupImport:
    def test_import_registers_verified_entries(self, world):
        b = world["builder"]
        b.advertise_capsule(world["chain"], world["rtcert"], expires_at=900.0)
        glookup = GLookupService("global")
        imported = import_catalog(
            b.capsule, glookup, world["router_md"].name, world["router_md"]
        )
        assert imported == 1
        entries = glookup.lookup(world["capsule_md"].name)
        assert len(entries) == 1
        entries[0].verify()

    def test_expired_entries_not_imported(self, world):
        b = world["builder"]
        b.advertise_capsule(world["chain"], world["rtcert"], expires_at=10.0)
        glookup = GLookupService("global")
        imported = import_catalog(
            b.capsule, glookup, world["router_md"].name, world["router_md"],
            now=20.0,
        )
        assert imported == 0

    def test_non_catalog_capsule_rejected(self, world, capsule_factory):
        glookup = GLookupService("global")
        with pytest.raises(AdvertisementError):
            import_catalog(
                capsule_factory(), glookup,
                world["router_md"].name, world["router_md"],
            )

    def test_forged_chain_in_catalog_fails_registration(self, world):
        """A catalog whose chain doesn't verify is caught at
        registration — a malicious advertiser can't launder routes
        through the catalog mechanism."""
        mallory = SigningKey.from_seed(b"cat-mallory")
        forged_adcert = AdCert.issue(
            mallory, world["capsule_md"].name, world["server_md"].name
        )
        forged_chain = ServiceChain(
            world["capsule_md"], forged_adcert, world["server_md"]
        )
        b = CatalogBuilder(world["server_md"], world["server"])
        b.advertise_capsule(forged_chain, world["rtcert"])
        glookup = GLookupService("global")
        from repro.errors import GdpError

        with pytest.raises(GdpError):
            import_catalog(
                b.capsule, glookup,
                world["router_md"].name, world["router_md"],
            )
