"""Filesystem CAAPI: write/read/list/delete, versioning, mounting."""

import pytest

from repro.caapi import CapsuleFileSystem
from repro.client import OwnerConsole
from repro.errors import CapsuleError, RecordNotFoundError
from repro.sim import blob


@pytest.fixture()
def fs_setup(mini_gdp):
    g = mini_gdp
    fs = CapsuleFileSystem(
        g.writer_client,
        g.console,
        [g.server_edge.metadata],
        chunk_size=4096,
    )
    return g, fs


class TestFileLifecycle:
    def test_write_and_read(self, fs_setup):
        g, fs = fs_setup
        data = blob(10_000, seed=1)

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            yield from fs.write_file("models/model.pb", data)
            return (yield from fs.read_file("models/model.pb"))

        assert g.run(scenario()) == data

    def test_multi_chunk_reassembly(self, fs_setup):
        g, fs = fs_setup
        data = blob(3 * 4096 + 17, seed=2)  # 4 chunks, ragged tail

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            yield from fs.write_file("big.bin", data)
            return (yield from fs.read_file("big.bin"))

        assert g.run(scenario()) == data

    def test_empty_file(self, fs_setup):
        g, fs = fs_setup

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            yield from fs.write_file("empty", b"")
            return (yield from fs.read_file("empty"))

        assert g.run(scenario()) == b""

    def test_listdir_and_stat(self, fs_setup):
        g, fs = fs_setup

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            yield from fs.write_file("b.txt", b"bee")
            yield from fs.write_file("a.txt", b"ay")
            names = yield from fs.listdir()
            file_name, size = yield from fs.stat("b.txt")
            return names, size

        names, size = g.run(scenario())
        assert names == ["a.txt", "b.txt"]
        assert size == 3

    def test_overwrite_rebinds(self, fs_setup):
        g, fs = fs_setup

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            yield from fs.write_file("f", b"v1")
            old_name, _ = yield from fs.stat("f")
            yield from fs.write_file("f", b"v2-longer")
            new_name, new_size = yield from fs.stat("f")
            content = yield from fs.read_file("f")
            return old_name, new_name, new_size, content

        old_name, new_name, new_size, content = g.run(scenario())
        assert old_name != new_name  # fresh capsule per version
        assert content == b"v2-longer" and new_size == 9

    def test_old_version_still_addressable(self, fs_setup):
        """Multi-versioning: the old file capsule remains readable by
        name after an overwrite."""
        g, fs = fs_setup

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            yield from fs.write_file("f", b"v1")
            old_name, _ = yield from fs.stat("f")
            yield from fs.write_file("f", b"v2")
            record = (yield from g.writer_client.read(old_name, 1)).record
            return record.payload

        assert g.run(scenario()) == b"v1"

    def test_delete(self, fs_setup):
        g, fs = fs_setup

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            yield from fs.write_file("gone", b"x")
            yield from fs.delete("gone")
            names = yield from fs.listdir()
            with pytest.raises((RecordNotFoundError, CapsuleError)):
                yield from fs.read_file("gone")
            return names

        assert g.run(scenario()) == []

    def test_delete_missing_rejected(self, fs_setup):
        g, fs = fs_setup

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            with pytest.raises(RecordNotFoundError):
                yield from fs.delete("never-existed")
            return True

        assert g.run(scenario())

    def test_read_missing_rejected(self, fs_setup):
        g, fs = fs_setup

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            with pytest.raises(RecordNotFoundError):
                yield from fs.read_file("nope")
            return True

        assert g.run(scenario())


class TestMounting:
    def test_second_client_mounts_read_only(self, mini_gdp):
        g = mini_gdp
        data = blob(5000, seed=3)
        fs = CapsuleFileSystem(
            g.writer_client, g.console,
            [g.server_edge.metadata, g.server_root.metadata],
            chunk_size=4096,
        )

        def scenario():
            yield from g.bootstrap()
            root_name = yield from fs.format()
            yield from fs.write_file("shared.bin", data)
            yield 2.0  # replication to the root server
            # An unrelated client mounts by name only.
            other_console = OwnerConsole(g.reader_client, g.owner_key)
            mounted = CapsuleFileSystem(
                g.reader_client, other_console, [], chunk_size=4096
            )
            yield from mounted.mount(root_name)
            names = yield from mounted.listdir()
            content = yield from mounted.read_file("shared.bin")
            with pytest.raises(CapsuleError):
                yield from mounted.write_file("nope", b"")
            return names, content

        names, content = g.run(scenario())
        assert names == ["shared.bin"]
        assert content == data
