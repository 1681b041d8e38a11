"""Encrypted filesystem CAAPI: confidentiality + key sharing (§V)."""

import pytest

from repro.caapi import CapsuleFileSystem
from repro.client import OwnerConsole
from repro.errors import IntegrityError
from repro.sim import blob


@pytest.fixture()
def enc_fs(mini_gdp):
    g = mini_gdp
    fs = CapsuleFileSystem(
        g.writer_client, g.console, [g.server_edge.metadata],
        chunk_size=4096, encrypt=True,
    )
    return g, fs


class TestEncryptedFiles:
    def test_roundtrip(self, enc_fs):
        g, fs = enc_fs
        data = blob(10_000, seed=11)

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            yield from fs.write_file("secret.bin", data)
            return (yield from fs.read_file("secret.bin"))

        assert g.run(scenario()) == data

    def test_infrastructure_stores_only_ciphertext(self, enc_fs):
        g, fs = enc_fs
        data = blob(5000, seed=12)

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            yield from fs.write_file("secret.bin", data)
            file_name, _ = yield from fs.stat("secret.bin")
            return file_name

        file_name = g.run(scenario())
        stored = b"".join(
            wire["payload"]
            for tag, wire in g.server_edge.storage.load_entries(file_name)
            if tag == "r"
        )
        assert stored  # the log holds the file's records
        assert data[:256] not in stored  # plaintext never on the server

    def test_reader_without_key_cannot_decrypt(self, enc_fs):
        g, fs = enc_fs
        data = blob(5000, seed=13)

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            yield from fs.write_file("secret.bin", data)
            yield 1.0
            # A reader mounts the directory but holds no key.
            other_console = OwnerConsole(g.reader_client, g.owner_key)
            snoop = CapsuleFileSystem(g.reader_client, other_console, [])
            yield from snoop.mount(fs.directory_name)
            with pytest.raises(IntegrityError):
                yield from snoop.read_file("secret.bin")
            return True

        assert g.run(scenario())

    def test_read_grant_enables_decryption(self, enc_fs):
        g, fs = enc_fs
        data = blob(5000, seed=14)

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            yield from fs.write_file("secret.bin", data)
            yield 1.0
            grant = yield from fs.grant_read(
                "secret.bin", g.reader_client.key.public
            )
            other_console = OwnerConsole(g.reader_client, g.owner_key)
            authorized = CapsuleFileSystem(g.reader_client, other_console, [])
            yield from authorized.mount(fs.directory_name)
            authorized.accept_grant(grant, g.reader_client.key)
            return (yield from authorized.read_file("secret.bin"))

        assert g.run(scenario()) == data

    def test_grant_for_wrong_reader_useless(self, enc_fs):
        g, fs = enc_fs
        data = blob(3000, seed=15)

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            yield from fs.write_file("secret.bin", data)
            grant = yield from fs.grant_read(
                "secret.bin", g.writer_client.key.public  # NOT the reader
            )
            other_console = OwnerConsole(g.reader_client, g.owner_key)
            snoop = CapsuleFileSystem(g.reader_client, other_console, [])
            yield from snoop.mount(fs.directory_name)
            with pytest.raises(IntegrityError):
                snoop.accept_grant(grant, g.reader_client.key)
            return True

        assert g.run(scenario())

    def test_plaintext_files_unaffected(self, mini_gdp):
        g = mini_gdp
        fs = CapsuleFileSystem(
            g.writer_client, g.console, [g.server_edge.metadata],
            chunk_size=4096, encrypt=False,
        )
        data = blob(3000, seed=16)

        def scenario():
            yield from g.bootstrap()
            yield from fs.format()
            yield from fs.write_file("open.bin", data)
            return (yield from fs.read_file("open.bin"))

        assert g.run(scenario()) == data
