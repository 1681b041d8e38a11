"""GLookupService: registration, hierarchy, scope enforcement."""

import pytest

from repro.crypto import SigningKey
from repro.delegation import AdCert, RtCert, ServiceChain
from repro.errors import AdvertisementError, ScopeViolationError
from repro.naming import (
    make_capsule_metadata,
    make_router_metadata,
    make_server_metadata,
)
from repro.routing.glookup import GLookupService, RouteEntry


@pytest.fixture()
def world():
    owner = SigningKey.from_seed(b"gl-owner")
    writer = SigningKey.from_seed(b"gl-writer")
    server = SigningKey.from_seed(b"gl-server")
    router = SigningKey.from_seed(b"gl-router")
    capsule_md = make_capsule_metadata(owner, writer.public)
    server_md = make_server_metadata(server, server.public)
    router_md = make_router_metadata(router, router.public)
    return {
        "owner": owner,
        "server": server,
        "capsule_md": capsule_md,
        "server_md": server_md,
        "router_md": router_md,
    }


def capsule_entry(world, scopes=(), expires_at=None):
    adcert = AdCert.issue(
        world["owner"], world["capsule_md"].name, world["server_md"].name,
        scopes=scopes,
    )
    chain = ServiceChain(world["capsule_md"], adcert, world["server_md"])
    rtcert = RtCert.issue(
        world["server"], world["server_md"].name, world["router_md"].name
    )
    return RouteEntry(
        world["capsule_md"].name,
        router=world["router_md"].name,
        principal=world["server_md"].name,
        principal_metadata=world["server_md"],
        rtcert=rtcert,
        chain=chain,
        router_metadata=world["router_md"],
        expires_at=expires_at,
    )


def self_entry(world):
    rtcert = RtCert.issue(
        world["server"], world["server_md"].name, world["router_md"].name
    )
    return RouteEntry(
        world["server_md"].name,
        router=world["router_md"].name,
        principal=world["server_md"].name,
        principal_metadata=world["server_md"],
        rtcert=rtcert,
        chain=None,
        router_metadata=world["router_md"],
    )


class TestRouteEntry:
    def test_capsule_entry_verifies(self, world):
        capsule_entry(world).verify()

    def test_self_entry_verifies(self, world):
        self_entry(world).verify()

    def test_must_have_exactly_one_location(self, world):
        with pytest.raises(AdvertisementError):
            RouteEntry(
                world["server_md"].name,
                principal=world["server_md"].name,
                principal_metadata=world["server_md"],
                rtcert=None,
                chain=None,
                router_metadata=None,
            )

    def test_self_name_mismatch_rejected(self, world):
        entry = RouteEntry(
            world["capsule_md"].name,  # claims a capsule name...
            router=world["router_md"].name,
            principal=world["server_md"].name,
            principal_metadata=world["server_md"],  # ...with server metadata
            rtcert=None,
            chain=None,
            router_metadata=None,
        )
        with pytest.raises(AdvertisementError):
            entry.verify()

    def test_chain_name_mismatch_rejected(self, world):
        entry = capsule_entry(world)
        entry.name = world["server_md"].name
        with pytest.raises(AdvertisementError):
            entry.verify()


class TestRegistration:
    def test_register_and_lookup(self, world):
        service = GLookupService("global")
        entry = self_entry(world)
        service.register(entry)
        assert service.lookup(entry.name) == [entry]

    def test_lookup_miss(self, world):
        service = GLookupService("global")
        assert service.lookup(world["capsule_md"].name) == []
        assert service.metrics.counter("glookup.misses").value == 1

    def test_reregistration_replaces(self, world):
        service = GLookupService("global")
        service.register(self_entry(world))
        service.register(self_entry(world))
        assert len(service.lookup(world["server_md"].name)) == 1

    def test_unregister(self, world):
        service = GLookupService("global")
        entry = self_entry(world)
        service.register(entry)
        service.unregister(entry.name, entry.principal)
        assert service.lookup(entry.name) == []

    def test_expired_entries_culled(self, world):
        clock = {"now": 0.0}
        service = GLookupService("global", clock=lambda: clock["now"])
        service.register(capsule_entry(world, expires_at=10.0))
        assert len(service.lookup(world["capsule_md"].name)) == 1
        clock["now"] = 11.0
        assert service.lookup(world["capsule_md"].name) == []

    def test_compromised_service_accepts_garbage(self, world):
        """verify_on_register=False models a compromised service — the
        forged entry gets in, but RouteEntry.verify() still fails when
        an untrusting router re-checks it."""
        service = GLookupService("global", verify_on_register=False)
        entry = capsule_entry(world)
        entry.name = world["server_md"].name  # forged binding
        service.register(entry)
        stored = service.lookup(world["server_md"].name)
        assert stored
        with pytest.raises(AdvertisementError):
            stored[0].verify()


class TestHierarchy:
    def make_tree(self):
        root = GLookupService("global")
        child = GLookupService("global.site", parent=root)
        grandchild = GLookupService("global.site.floor", parent=child)
        return root, child, grandchild

    @staticmethod
    def climb(service, name):
        """The resolution walk's climb (``GdpRouter._walk``): ask each
        tier, leaf → parent → …, until one answers."""
        while service is not None:
            entries = service.lookup(name)
            if entries:
                return service, entries
            service = service.parent
        return None, []

    def test_propagates_to_ancestors(self, world):
        root, child, grandchild = self.make_tree()
        grandchild.register(self_entry(world))
        assert len(grandchild.lookup(world["server_md"].name)) == 1
        assert len(child.lookup(world["server_md"].name)) == 1
        assert len(root.lookup(world["server_md"].name)) == 1
        assert child.lookup(world["server_md"].name)[0].via_child == (
            "global.site.floor"
        )
        assert root.lookup(world["server_md"].name)[0].via_child == (
            "global.site"
        )

    def test_recursive_lookup(self, world):
        root, child, grandchild = self.make_tree()
        sibling = GLookupService("global.other", parent=root)
        grandchild.register(self_entry(world))
        answered_by, entries = self.climb(sibling, world["server_md"].name)
        assert answered_by is root
        assert entries[0].via_child == "global.site"

    def test_recursive_miss(self, world):
        root, child, grandchild = self.make_tree()
        answered_by, entries = self.climb(
            grandchild, world["capsule_md"].name
        )
        assert answered_by is None and entries == []

    def test_unregister_propagates(self, world):
        root, child, grandchild = self.make_tree()
        entry = self_entry(world)
        grandchild.register(entry)
        grandchild.unregister(entry.name, entry.principal)
        assert root.lookup(entry.name) == []


class TestScopeEnforcement:
    def test_scoped_entry_stays_local(self, world):
        root = GLookupService("global")
        site = GLookupService("global.site", parent=root)
        entry = capsule_entry(world, scopes=["global.site"])
        site.register(entry)
        assert len(site.lookup(entry.name)) == 1
        # The name never reaches the global tier.
        assert root.lookup(entry.name) == []

    def test_out_of_scope_registration_rejected(self, world):
        other = GLookupService("global.other")
        entry = capsule_entry(world, scopes=["global.site"])
        with pytest.raises(ScopeViolationError):
            other.register(entry)

    def test_unscoped_entry_propagates_fully(self, world):
        root = GLookupService("global")
        site = GLookupService("global.site", parent=root)
        entry = capsule_entry(world)
        site.register(entry)
        assert len(root.lookup(entry.name)) == 1

    def test_scope_allows_subtree_propagation(self, world):
        root = GLookupService("global")
        site = GLookupService("global.site", parent=root)
        floor = GLookupService("global.site.floor", parent=site)
        entry = capsule_entry(world, scopes=["global.site"])
        floor.register(entry)
        assert len(site.lookup(entry.name)) == 1
        assert root.lookup(entry.name) == []
