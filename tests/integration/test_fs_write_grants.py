"""CapsuleFS-style per-path write credentials, checked at the commit
point: granting write access no longer means sharing the directory key."""

import pytest

from repro.caapi import (
    CapsuleFileSystem,
    CommitClient,
    CommitShard,
    ShardedCommitService,
    grant_write,
    path_write_authorizer,
    writer_principal,
)
from repro.client import GdpClient, OwnerConsole
from repro.delegation.certs import AdCert
from repro.errors import CapsuleError


def build_fs_plane(g, owner_keys):
    """A single-shard commit plane guarding a shared directory with
    per-path credentials; the directory owner and one collaborator."""
    shard = CommitShard(
        g.net, "fsdir",
        authorizer=path_write_authorizer(g.owner_key.public),
    )
    shard.attach(g.r_root)
    front = ShardedCommitService(g.net, "fsfront", [shard])
    front.attach(g.r_edge)

    # The owner submits under the directory-owner key itself.
    owner_client = GdpClient(g.net, "owner_client", key=g.owner_key)
    owner_client.attach(g.r_edge)
    owner_console = OwnerConsole(owner_client, g.owner_key)

    # The collaborator has their own key and their own console (their
    # file capsules are their own; only directory bindings are gated).
    alice = GdpClient(g.net, "fs_alice", key=owner_keys(b"fs-alice"))
    alice.attach(g.r_root)
    alice_console = OwnerConsole(alice, owner_keys(b"fs-alice-owner"))

    def setup():
        yield from g.bootstrap()
        yield shard.advertise()
        yield front.advertise()
        yield owner_client.advertise()
        yield alice.advertise()
        yield from front.create(g.console, [g.server_root.metadata])

    return shard, front, owner_client, owner_console, alice, alice_console, setup


def make_fs(client, console, g, commit_front, credential=None):
    fs = CapsuleFileSystem(
        client, console, [g.server_root.metadata],
        writer_key=client.key, chunk_size=512,
    )
    fs.attach_commit(
        CommitClient(client, commit_front.name), credential=credential
    )
    return fs


class TestWriteGrants:
    def test_owner_writes_without_credential(self, mini_gdp, owner_keys):
        g = mini_gdp
        shard, front, owner_client, owner_console, *_rest, setup = \
            build_fs_plane(g, owner_keys)

        def scenario():
            yield from setup()
            fs = make_fs(owner_client, owner_console, g, front)
            yield from fs.write_file("/etc/motd", b"welcome")
            yield 1.0
            data = yield from fs.read_file("/etc/motd")
            listing = yield from fs.listdir()
            return data, listing

        data, listing = g.run(scenario())
        assert data == b"welcome"
        assert listing == ["/etc/motd"]

    def test_grantee_writes_inside_prefix(self, mini_gdp, owner_keys):
        g = mini_gdp
        (shard, front, owner_client, owner_console,
         alice, alice_console, setup) = build_fs_plane(g, owner_keys)

        def scenario():
            yield from setup()
            cert = grant_write(
                g.console, alice.key.public, "/home/alice",
                directory=shard.capsule_name,
            )
            fs = make_fs(alice, alice_console, g, front, credential=cert)
            yield from fs.write_file("/home/alice/notes.txt", b"mine")
            yield 1.0
            # The owner sees the binding through the shared directory.
            owner_fs = make_fs(owner_client, owner_console, g, front)
            listing = yield from owner_fs.listdir()
            data = yield from owner_fs.read_file("/home/alice/notes.txt")
            return listing, data

        listing, data = g.run(scenario())
        assert listing == ["/home/alice/notes.txt"]
        assert data == b"mine"
        assert shard.metrics.counter("commit.committed").value == 1

    def test_grantee_rejected_outside_prefix(self, mini_gdp, owner_keys):
        g = mini_gdp
        (shard, front, _oc, _ocon, alice, alice_console, setup) = \
            build_fs_plane(g, owner_keys)

        def scenario():
            yield from setup()
            cert = grant_write(
                g.console, alice.key.public, "/home/alice",
                directory=shard.capsule_name,
            )
            fs = make_fs(alice, alice_console, g, front, credential=cert)
            with pytest.raises(CapsuleError, match="credential"):
                yield from fs.write_file("/home/bob/steal.txt", b"x")
            # Prefix match is per path component: /home/aliceX is NOT
            # covered by /home/alice.
            with pytest.raises(CapsuleError, match="credential"):
                yield from fs.write_file("/home/aliceX", b"x")

        g.run(scenario())
        assert shard.metrics.counter("commit.committed").value == 0
        assert shard.metrics.counter("commit.rejected").value == 2

    def test_no_credential_rejected(self, mini_gdp, owner_keys):
        g = mini_gdp
        (shard, front, _oc, _ocon, alice, alice_console, setup) = \
            build_fs_plane(g, owner_keys)

        def scenario():
            yield from setup()
            fs = make_fs(alice, alice_console, g, front)
            with pytest.raises(CapsuleError, match="credential"):
                yield from fs.write_file("/home/alice/f", b"x")

        g.run(scenario())
        assert shard.metrics.counter("commit.rejected").value == 1

    def test_forged_credential_rejected(self, mini_gdp, owner_keys):
        """A cert signed by anyone but the directory owner is useless."""
        g = mini_gdp
        (shard, front, _oc, _ocon, alice, alice_console, setup) = \
            build_fs_plane(g, owner_keys)

        def scenario():
            yield from setup()
            forged = AdCert.issue(
                owner_keys(b"mallory"),  # not the directory owner
                shard.capsule_name,
                writer_principal(alice.key.public.to_bytes()),
                scopes=("/home/alice",),
            )
            fs = make_fs(alice, alice_console, g, front, credential=forged)
            with pytest.raises(CapsuleError, match="credential"):
                yield from fs.write_file("/home/alice/f", b"x")

        g.run(scenario())
        assert shard.metrics.counter("commit.rejected").value == 1

    def test_expired_credential_rejected(self, mini_gdp, owner_keys):
        """Expiry is judged against the shard's clock at commit time."""
        g = mini_gdp
        (shard, front, _oc, _ocon, alice, alice_console, setup) = \
            build_fs_plane(g, owner_keys)

        def scenario():
            yield from setup()
            cert = grant_write(
                g.console, alice.key.public, "/home/alice",
                directory=shard.capsule_name,
                expires_at=g.net.sim.now + 5.0,
            )
            fs = make_fs(alice, alice_console, g, front, credential=cert)
            yield from fs.write_file("/home/alice/early", b"ok")
            yield 10.0  # past the expiry
            with pytest.raises(CapsuleError, match="credential"):
                yield from fs.write_file("/home/alice/late", b"no")

        g.run(scenario())
        assert shard.metrics.counter("commit.committed").value == 1
        assert shard.metrics.counter("commit.rejected").value == 1

    def test_grantee_can_tombstone_own_subtree(self, mini_gdp, owner_keys):
        g = mini_gdp
        (shard, front, _oc, _ocon, alice, alice_console, setup) = \
            build_fs_plane(g, owner_keys)

        def scenario():
            yield from setup()
            cert = grant_write(
                g.console, alice.key.public, "/home/alice",
                directory=shard.capsule_name,
            )
            fs = make_fs(alice, alice_console, g, front, credential=cert)
            yield from fs.write_file("/home/alice/tmp", b"scratch")
            yield 0.5
            yield from fs.delete("/home/alice/tmp")
            yield 0.5
            listing = yield from fs.listdir()
            return listing

        assert g.run(scenario()) == []
        assert shard.metrics.counter("commit.committed").value == 2  # bind + tombstone
