"""Filesystem CAAPI — the paper's TensorFlow-plugin design (§IX).

"Internally, this CAAPI maintains a top-level directory in a single
DataCapsule. Each filename is represented as its own DataCapsule; the
top-level directory merely maps filenames to DataCapsule-names."

- The **directory capsule** is a log of ``{path -> file-capsule name}``
  bindings (and tombstones); its materialized view is rebuilt by verified
  replay, so the whole namespace inherits capsule integrity.
- Each **file capsule** (checkpoint pointer strategy) holds the file
  content as fixed-size chunk records; a range read reassembles the file
  with a single range proof.

Every method is a generator coroutine (run inside a sim process); the
filesystem is a *client-side* construct — servers see only ordinary
capsules ("the infrastructure merely makes the information durable and
available", §V-B).

**Multi-writer directories (CapsuleFS-style).**  With
:meth:`CapsuleFileSystem.attach_commit`, directory mutations flow
through the commit plane instead of a locally-held directory writer, and
write access is *per path prefix*: the owner issues an AdCert delegating
a path subtree to a writer principal (:func:`grant_write`), and the
commit shard checks that delegation evidence at the commit point
(:func:`path_write_authorizer`).  Granting write access no longer means
sharing the directory key — each collaborator keeps their own signing
key, mints their own file capsules, and presents the certificate with
every directory binding.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro import encoding
from repro.caapi.base import CapsuleApp
from repro.caapi.commit_service import Authorizer, CommitClient, CommitShard
from repro.capsule.sealed import ContentKey, ReadGrant, open_payload, seal_payload
from repro.client.client import GdpClient
from repro.client.owner import OwnerConsole
from repro.crypto.hashing import sha256
from repro.crypto.keys import SigningKey, VerifyingKey
from repro.delegation.certs import AdCert
from repro.errors import (
    AuthorizationError,
    CapsuleError,
    DelegationError,
    IntegrityError,
    RecordNotFoundError,
)
from repro.naming.metadata import Metadata
from repro.naming.names import GdpName

__all__ = [
    "CapsuleFileSystem",
    "DEFAULT_CHUNK",
    "grant_write",
    "path_write_authorizer",
    "writer_principal",
]

DEFAULT_CHUNK = 1 * 1024 * 1024  # 1 MiB chunk records

#: domain tag turning a writer's public key into a delegable principal
_WRITER_PRINCIPAL_DOMAIN = b"gdp.fs.writer"


def writer_principal(key_bytes: bytes) -> GdpName:
    """The flat-name principal an AdCert delegates to: derived from the
    writer's public key, so the certificate binds to the *key* that
    signs submissions, not to any transport identity."""
    return GdpName(sha256(_WRITER_PRINCIPAL_DOMAIN + key_bytes))


def _path_in_scope(path: str, scope: str) -> bool:
    """Explicit path-prefix semantics: a scope covers itself and its
    subtree, on whole path components (``/a`` covers ``/a/b`` but never
    ``/ab``).  AdCert's dotted-domain matching is wrong for paths, so
    filesystem grants use this instead."""
    scope = scope.rstrip("/")
    return path == scope or path.startswith(scope + "/")


def grant_write(
    console: OwnerConsole,
    grantee: VerifyingKey,
    prefix: str,
    *,
    directory: GdpName,
    expires_at: float | None = None,
) -> AdCert:
    """Owner-side: delegate write access to the *prefix* subtree of the
    directory identified by *directory* (for a commit-plane directory,
    the shard log's capsule name).  Returns the AdCert the grantee must
    present with every directory binding."""
    return AdCert.issue(
        console.owner_key,
        directory,
        writer_principal(grantee.to_bytes()),
        scopes=(prefix,),
        expires_at=expires_at,
    )


def path_write_authorizer(owner_key: VerifyingKey) -> Authorizer:
    """A :class:`~repro.caapi.commit_service.CommitShard` authorizer
    enforcing per-path write credentials at the commit point.

    The capsule owner writes freely; any other submitter must present an
    AdCert issued by the owner, delegating to *their* key's writer
    principal, bound to this shard's directory capsule, unexpired at
    commit time, whose scope prefix covers the path being bound.
    """
    owner_bytes = owner_key.to_bytes()

    def authorize(
        shard: CommitShard,
        submitter: bytes,
        key: str | None,
        payload: dict,
    ) -> None:
        if submitter == owner_bytes:
            return
        try:
            entry = encoding.decode(payload["data"])
            path = entry["path"]
        except Exception as exc:  # noqa: BLE001 — any parse failure rejects
            raise AuthorizationError(
                f"malformed directory entry: {exc}"
            ) from exc
        wire = payload.get("credential")
        if wire is None:
            raise AuthorizationError(
                f"writing {path!r} requires a write credential"
            )
        try:
            cert = AdCert.from_wire(wire)
            cert.verify(
                owner_key,
                now=shard.ctx.now,
                capsule=shard.capsule_name,
                delegate=writer_principal(submitter),
            )
        except DelegationError as exc:
            raise AuthorizationError(
                f"write credential rejected: {exc}"
            ) from exc
        if not any(_path_in_scope(path, scope) for scope in cert.scopes):
            raise AuthorizationError(
                f"write credential does not cover path {path!r}"
            )

    return authorize


class CapsuleFileSystem(CapsuleApp):
    """A mutable filesystem interface over immutable capsules."""

    CAAPI_KIND = "filesystem"
    CAAPI_LABEL = "caapi.fs.directory"
    WRITER_SEED = b"fswriter:"

    def __init__(
        self,
        client: GdpClient,
        console: OwnerConsole,
        server_metadatas: Sequence[Metadata],
        *,
        writer_key: SigningKey | None = None,
        chunk_size: int = DEFAULT_CHUNK,
        scopes: Sequence[str] = (),
        acks: str = "any",
        encrypt: bool = False,
    ):
        if chunk_size < 1:
            raise CapsuleError("chunk_size must be >= 1")
        super().__init__(
            client,
            console,
            server_metadatas,
            writer_key=writer_key,
            scopes=scopes,
            acks=acks,
        )
        self.chunk_size = chunk_size
        self.encrypt = encrypt
        self._file_seq = 0
        #: per-file content keys (owner side, or unwrapped from grants)
        self._content_keys: dict[GdpName, ContentKey] = {}
        #: commit-plane directory (multi-writer mode), else None
        self.commit: CommitClient | None = None
        #: the AdCert presented with every directory binding (grantees)
        self._write_credential: AdCert | None = None

    @property
    def directory_name(self) -> GdpName:
        """The top-level directory capsule's name."""
        if self._name is None:
            raise CapsuleError("filesystem is not formatted yet")
        return self._name

    # -- lifecycle -----------------------------------------------------------

    def format(self) -> Generator:
        """Create the top-level directory capsule; returns its name."""
        name = yield from self.create()
        return name

    def attach_commit(
        self,
        commit: CommitClient,
        *,
        credential: AdCert | None = None,
    ) -> None:
        """Switch directory mutations onto a commit plane (multi-writer
        directory).  Grantees pass the AdCert from :func:`grant_write`
        as *credential*; the owner needs none."""
        self.commit = commit
        self._write_credential = credential

    # -- directory replay ------------------------------------------------------

    @staticmethod
    def _apply_dir_entry(
        view: dict[str, tuple[bytes, int, bool]], entry: dict
    ) -> None:
        if entry.get("tombstone"):
            view.pop(entry["path"], None)
        else:
            view[entry["path"]] = (
                entry["capsule"],
                entry["size"],
                bool(entry.get("encrypted")),
            )

    def _directory_view(self) -> Generator:
        """Replay the directory log into
        ``{path: (capsule raw, size, encrypted)}``."""
        view: dict[str, tuple[bytes, int, bool]] = {}
        if self.commit is not None:
            # Multi-writer directory: the log lives in the commit
            # plane's shard capsules, each entry provenance-wrapped.
            # Bindings are keyed by path, so one path's history sits
            # entirely inside one shard — sequential replay is safe.
            from repro.caapi.commit_service import read_committed_entry

            shard_map = self.commit.shard_map
            if shard_map is None:
                shard_map = yield from self.commit.fetch_map()
            for capsule in shard_map.capsules:
                result = yield from self.client.read_range(capsule, 1)
                if result is None:
                    continue
                for record in result.records:
                    wrapped = read_committed_entry(record.payload)
                    self._apply_dir_entry(
                        view, encoding.decode(wrapped["data"])
                    )
            return view
        assert self._name is not None
        result = yield from self.client.read_range(self._name, 1)
        if result is None:
            return view
        for record in result.records:
            self._apply_dir_entry(view, encoding.decode(record.payload))
        return view

    def listdir(self) -> Generator:
        """All live paths, sorted."""
        view = yield from self._directory_view()
        return sorted(view)

    def stat(self, path: str) -> Generator:
        """``(file capsule name, size)``; raises if absent."""
        view = yield from self._directory_view()
        if path not in view:
            raise RecordNotFoundError(f"no such file: {path!r}")
        raw, size, _encrypted = view[path]
        return GdpName(raw), size

    # -- file IO -----------------------------------------------------------------

    def _bind_path(self, entry: dict) -> Generator:
        """Append one directory binding: through the commit plane (with
        delegation evidence, checked at the commit point) when attached,
        else through the locally-held directory writer."""
        if self.commit is not None:
            credential = (
                self._write_credential.to_wire()
                if self._write_credential is not None
                else None
            )
            receipt = yield from self.commit.submit(
                encoding.encode(entry),
                key=entry["path"],
                credential=credential,
            )
            return receipt
        if self._writer is None:
            raise CapsuleError(
                "filesystem is read-only (mounted) or unformatted"
            )
        receipt = yield from self._writer.append(encoding.encode(entry))
        return receipt

    def write_file(self, path: str, data: bytes) -> Generator:
        """Create/replace *path* with *data*; returns the file capsule
        name.  A replace writes a fresh capsule and re-binds the path —
        old versions stay intact and addressable (multi-versioned, as
        the paper's "secure, multi-versioned binaries" need)."""
        if self.commit is None and self._writer is None:
            raise CapsuleError(
                "filesystem is read-only (mounted) or unformatted"
            )
        self._file_seq += 1
        metadata = self.console.design_capsule(
            self.writer_key.public,
            pointer_strategy="checkpoint:16",
            label=f"caapi.fs.file:{path}",
            extra={"caapi": "filesystem.file", "fileseq": self._file_seq},
        )
        yield from self.console.place_capsule(
            metadata, self.servers, scopes=self.scopes
        )
        yield 0.2  # advertisement settling
        writer = self.client.open_writer(
            metadata, self.writer_key, acks=self.acks
        )
        content_key: ContentKey | None = None
        if self.encrypt:
            # §V: "read access control is maintained by selective
            # sharing of decryption keys" — one content key per file;
            # the infrastructure stores only ciphertext.
            content_key = ContentKey.generate(metadata.name)
            self._content_keys[metadata.name] = content_key
        chunks: list[bytes] = []
        seqno = 0
        for offset in range(0, len(data), self.chunk_size):
            chunk = data[offset : offset + self.chunk_size]
            seqno += 1
            if content_key is not None:
                chunk = seal_payload(content_key, seqno, chunk)
            chunks.append(chunk)
        if not data:
            chunks.append(
                seal_payload(content_key, 1, b"")
                if content_key is not None
                else b""
            )
        # Pipelined appends keep the uplink full instead of paying one
        # round trip per chunk (the paper's event-driven client library).
        yield from writer.append_stream(chunks)
        yield from self._bind_path(
            {
                "path": path,
                "capsule": metadata.name.raw,
                "size": len(data),
                "encrypted": self.encrypt,
            }
        )
        return metadata.name

    def read_file(self, path: str) -> Generator:
        """Read and reassemble *path* with verified range proofs;
        encrypted files are decrypted with the held content key."""
        view = yield from self._directory_view()
        if path not in view:
            raise RecordNotFoundError(f"no such file: {path!r}")
        raw, size, encrypted = view[path]
        file_name = GdpName(raw)
        result = yield from self.client.read_range(file_name, 1)
        if result is None:
            raise RecordNotFoundError(f"file capsule for {path!r} is empty")
        records = result.records
        if encrypted:
            content_key = self._content_keys.get(file_name)
            if content_key is None:
                raise IntegrityError(
                    f"file {path!r} is encrypted and no content key/grant "
                    "is held"
                )
            chunks = [
                open_payload(content_key, record.seqno, record.payload)
                for record in records
            ]
        else:
            chunks = [record.payload for record in records]
        data = b"".join(chunks)
        if len(data) != size:
            raise CapsuleError(
                f"file {path!r}: directory says {size} bytes, "
                f"capsule holds {len(data)}"
            )
        return data

    # -- read access control (key sharing) ---------------------------------

    def grant_read(self, path: str, reader_key: VerifyingKey) -> Generator:
        """Wrap *path*'s content key to a reader's public key; returns
        the :class:`ReadGrant` to hand over out of band (or store in a
        capsule)."""
        file_name, _size = yield from self.stat(path)
        content_key = self._content_keys.get(file_name)
        if content_key is None:
            raise IntegrityError(
                f"no content key held for {path!r} (not encrypted, or not "
                "the owner)"
            )
        return ReadGrant.create(content_key, reader_key)

    def accept_grant(self, grant: ReadGrant, reader_key: SigningKey) -> None:
        """Unwrap a received grant so :meth:`read_file` can decrypt."""
        content_key = grant.unwrap(reader_key)
        self._content_keys[grant.capsule] = content_key

    def delete(self, path: str) -> Generator:
        """Unlink *path* (tombstone in the directory log; the file
        capsule itself is immutable history)."""
        if self.commit is None and self._writer is None:
            raise CapsuleError(
                "filesystem is read-only (mounted) or unformatted"
            )
        view = yield from self._directory_view()
        if path not in view:
            raise RecordNotFoundError(f"no such file: {path!r}")
        yield from self._bind_path({"path": path, "tombstone": True})
