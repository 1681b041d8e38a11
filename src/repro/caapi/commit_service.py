"""Multi-writer support: the sharded distributed commit plane (§V-A).

"Multiple writers can be accommodated in two ways: (a) by using a
distributed commit service that accepts updates from multiple writers,
serializes them, and appends them to a DataCapsule ... In the first
case, such a distributed commit service is the single writer, and
represents a separation of write decisions from durability
responsibilities."

The plane has three pieces:

- :class:`CommitShard` — one serialization point.  It is the single
  writer of its own capsule-backed shard log; clients submit updates
  (op ``submit``), the shard authorizes them (submitter signature +
  ACL and/or a pluggable credential authorizer), serializes, appends
  through the normal writer path, and answers with the assigned seqno.
  Each committed record wraps the submitter identity, so provenance
  survives the indirection.  One shard on its own (the defaults) is
  the single-shard deployment.
- :class:`ShardedCommitService` — the front.  It owns N shards and
  serves a *signed* :class:`ShardMap`; every submitter verifies it once
  and submits straight to the shard its key hashes to.  The front
  takes no ``submit`` itself, so it never becomes the choke point the
  sharding removed, and no shard reply reaches a client through an
  unsigned relay.
- **Optimistic concurrency** (SCL-style compare-seqno CAS): a
  submission may carry ``key`` + ``expect_seqno``.  The precondition is
  judged *at commit time in serialization order* — expect 0 means "key
  unwritten", expect n means "key last committed at shard seqno n" — and
  a losing submission is rejected with a conflict envelope carrying the
  winning seqno so the client can rebase and retry (with jittered
  backoff; see :meth:`CommitClient.submit_cas`).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Generator, Sequence

from repro import encoding
from repro.caapi.base import create_backed_capsule
from repro.client.client import ClientWriter, GdpClient
from repro.client.owner import OwnerConsole
from repro.crypto.hashing import sha256
from repro.crypto.keys import SigningKey, VerifyingKey
from repro.errors import (
    AuthorizationError,
    CapsuleError,
    CommitConflictError,
    DelegationError,
    expect_bytes,
)
from repro.naming.metadata import Metadata
from repro.naming.names import GdpName
from repro.routing.pdu import Pdu
from repro.runtime.dispatch import dispatch_op, op, opt
from repro.runtime.context import Future
from repro.runtime.network import Network

__all__ = [
    "CommitShard",
    "ShardedCommitService",
    "ShardMap",
    "CommitReceipt",
    "CommitClient",
    "shard_of",
    "build_submission",
    "read_committed_entry",
]

#: v1 signature domain: keyless submissions (the pre-CAS wire format)
_DOMAIN_SUBMIT = b"gdp.commit.submit"
#: v2 signature domain: keyed/CAS submissions — the precondition is
#: inside the signed preimage, so a relay cannot strip or alter it
_DOMAIN_SUBMIT_V2 = b"gdp.commit.submit.v2"
#: shard-map statements are signed by the front's (coordinator's) key
_DOMAIN_SHARD_MAP = b"gdp.commit.shardmap"
#: keyless submissions spread across shards by data hash under this tag
_DOMAIN_KEYLESS = b"gdp.commit.keyless"

#: sentinel for "no precondition" in the signed preimage / ground truth
NO_PRECONDITION = -1


def shard_of(key: str, shard_count: int) -> int:
    """Deterministic key→shard map: uniform hash over the key bytes."""
    if shard_count <= 1:
        return 0
    digest = sha256(key.encode("utf-8"))
    return int.from_bytes(digest[:8], "big") % shard_count


def _shard_of_bytes(data: bytes, shard_count: int) -> int:
    """Keyless submissions spread by content hash (no ordering contract
    across them, so any deterministic spread is correct)."""
    if shard_count <= 1:
        return 0
    digest = sha256(_DOMAIN_KEYLESS + data)
    return int.from_bytes(digest[:8], "big") % shard_count


class CommitReceipt:
    """What an accepted submission produced (PR 4 envelope style).

    Attributes:
        seqno: the assigned sequence number in the shard log.
        acks: replica acknowledgments the backing append collected.
        shard: index of the shard that committed the update.
        capsule: the shard log's capsule name (``None`` when unknown).
        key: the CAS key the submission carried (``None`` for keyless).
        conflict: always ``None`` on a receipt — conflicts raise
            :class:`~repro.errors.CommitConflictError` instead; the
            attribute exists so envelope-shaped consumers can branch
            uniformly.
    """

    __slots__ = ("seqno", "acks", "shard", "capsule", "key", "conflict")

    def __init__(
        self,
        seqno: int,
        *,
        acks: int = 1,
        shard: int = 0,
        capsule: GdpName | None = None,
        key: str | None = None,
    ):
        self.seqno = seqno
        self.acks = acks
        self.shard = shard
        self.capsule = capsule
        self.key = key
        self.conflict = None

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, CommitReceipt):
            return (
                self.seqno == other.seqno
                and self.shard == other.shard
                and self.key == other.key
            )
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"CommitReceipt(seqno={self.seqno}, acks={self.acks}, "
            f"shard={self.shard}, key={self.key!r})"
        )


class ShardMap:
    """The signed shard routing record: version + per-shard (service
    endpoint name, shard-log capsule name), signed by the coordinator.

    A client verifies the statement once against the coordinator's key
    and then routes every submission directly to the owning shard —
    stale maps are self-healing because shards answer ``wrong_shard``
    with the correct index (see :meth:`CommitClient.submit`).
    """

    __slots__ = ("version", "services", "capsules", "signature")

    def __init__(
        self,
        version: int,
        services: Sequence[GdpName],
        capsules: Sequence[GdpName],
        signature: bytes = b"",
    ):
        if len(services) != len(capsules) or not services:
            raise CapsuleError("shard map needs one capsule per service")
        self.version = version
        self.services = tuple(services)
        self.capsules = tuple(capsules)
        self.signature = expect_bytes(signature, "shard map signature", CapsuleError)

    @property
    def shard_count(self) -> int:
        """How many shards the plane runs."""
        return len(self.services)

    def shard_of(self, key: str) -> int:
        """The shard index owning *key*."""
        return shard_of(key, self.shard_count)

    def route(self, key: str | None, data: bytes = b"") -> int:
        """The shard index for a submission (keyed or keyless)."""
        if key is not None:
            return self.shard_of(key)
        return _shard_of_bytes(data, self.shard_count)

    def signing_preimage(self) -> bytes:
        """The exact bytes the coordinator signature covers."""
        return _DOMAIN_SHARD_MAP + encoding.encode([
            "shardmap",
            self.version,
            [name.raw for name in self.services],
            [name.raw for name in self.capsules],
        ])

    @classmethod
    def issue(
        cls,
        coordinator: SigningKey,
        version: int,
        services: Sequence[GdpName],
        capsules: Sequence[GdpName],
    ) -> "ShardMap":
        """Create and sign the statement."""
        unsigned = cls(version, services, capsules)
        return cls(
            version,
            services,
            capsules,
            coordinator.sign(unsigned.signing_preimage()),
        )

    def verify(self, coordinator_key: VerifyingKey) -> None:
        """Raise unless the coordinator signed exactly this map."""
        if not coordinator_key.verify(self.signing_preimage(), self.signature):
            raise DelegationError(
                "shard map signature does not verify against the "
                "coordinator key"
            )

    def to_wire(self) -> dict:
        """Wire-encodable representation."""
        return {
            "version": self.version,
            "services": [name.raw for name in self.services],
            "capsules": [name.raw for name in self.capsules],
            "signature": self.signature,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "ShardMap":
        """Rebuild from a wire form; raises on malformed input."""
        try:
            return cls(
                wire["version"],
                [GdpName(raw) for raw in wire["services"]],
                [GdpName(raw) for raw in wire["capsules"]],
                wire["signature"],
            )
        except (KeyError, TypeError) as exc:
            raise CapsuleError(f"malformed shard map: {exc}") from exc

    def __repr__(self) -> str:
        return f"ShardMap(v{self.version}, shards={self.shard_count})"


#: credential authorizer hook: (shard, submitter key bytes, key, payload)
#: -> None or raise AuthorizationError.  Runs after the signature/ACL
#: checks; the filesystem CAAPI uses it for per-path AdCert evidence.
Authorizer = Callable[["CommitShard", bytes, "str | None", dict], None]


class CommitShard(GdpClient):
    """One serialization point of the commit plane: the single writer
    of its own capsule-backed shard log (see module docstring)."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        *,
        key: SigningKey | None = None,
        allowed_writers: Sequence[VerifyingKey] = (),
        shard_index: int = 0,
        shard_count: int = 1,
        authorizer: Authorizer | None = None,
    ):
        super().__init__(network, node_id, key=key)
        self.allowed_writers: set[bytes] = {
            k.to_bytes() for k in allowed_writers
        }
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.authorizer = authorizer
        self._writer: ClientWriter | None = None
        self._commit_chain: Future | None = None
        #: key -> shard-log seqno of its last committed mutation (the
        #: CAS register; rebuilt from the log on restart via replay)
        self._key_versions: dict[str, int] = {}
        #: ground truth for the ``commit_order`` oracle: every commit
        #: this shard ever acknowledged, in commit order
        self.commit_log: list[dict] = []
        self._c_committed = self.metrics.counter("commit.committed")
        self._c_rejected = self.metrics.counter("commit.rejected")
        self._c_conflicts = self.metrics.counter("commit.conflicts")

    def allow_writer(self, key: VerifyingKey) -> None:
        """Add a key to the write ACL."""
        self.allowed_writers.add(key.to_bytes())

    def create_capsule(
        self,
        console: OwnerConsole,
        server_metadatas: Sequence[Metadata],
        *,
        scopes: Sequence[str] = (),
        acks: str = "any",
        label: str = "caapi.commit",
        extra: dict | None = None,
    ) -> Generator:
        """Create the backing shard log with *this service* as the
        single writer; returns its name."""
        metadata, writer = yield from create_backed_capsule(
            self,
            console,
            server_metadatas,
            writer_key=self.key,
            pointer_strategy="chain",
            label=label,
            extra={
                "caapi": "commit",
                "shard": self.shard_index,
                **(extra or {}),
            },
            scopes=scopes,
            acks=acks,
        )
        self._writer = writer
        return metadata.name

    @property
    def capsule_name(self) -> GdpName:
        """The backing shard log's name."""
        if self._writer is None:
            raise CapsuleError("commit shard has no capsule yet")
        return self._writer.capsule_name

    def version_of(self, key: str) -> int:
        """The shard-log seqno of *key*'s last committed mutation (0 =
        never written) — the value a CAS precondition compares against."""
        return self._key_versions.get(key, 0)

    # -- the service side -----------------------------------------------------

    def on_request(self, pdu: Pdu) -> Any:
        """Serve one application request through the shared op registry
        (same typed-payload validation as every other GDP node role)."""
        return dispatch_op(self, pdu, pdu.payload)

    @op(
        "submit",
        submitter=bytes,
        data=bytes,
        signature=object,
        key=opt(str),
        expect_seqno=opt(int),
        credential=opt(object),
    )
    def _op_submit(self, pdu: Pdu, payload: dict) -> Any:
        if self._writer is None:
            return {"ok": False, "error": "service not ready"}
        key = payload.get("key")
        if key is not None and self.shard_count > 1:
            owner = shard_of(key, self.shard_count)
            if owner != self.shard_index:
                self._c_rejected.inc()
                return {
                    "ok": False,
                    "wrong_shard": True,
                    "shard": owner,
                    "error": (
                        f"key {key!r} belongs to shard {owner}, "
                        f"this is shard {self.shard_index}"
                    ),
                }
        try:
            self._authorize(payload)
        except AuthorizationError as exc:
            self._c_rejected.inc()
            return {"ok": False, "error": str(exc)}
        return self._serialize_and_commit(pdu, payload)

    def _authorize(self, payload: dict) -> None:
        """Check the submitter's signature over the update (write access
        control at the commit point), then the optional credential
        authorizer (per-key delegation evidence, e.g. CapsuleFS path
        grants)."""
        try:
            submitter = VerifyingKey.from_bytes(payload["submitter"])
            data = payload["data"]
            signature = expect_bytes(
                payload["signature"], "submission signature", AuthorizationError
            )
        except (KeyError, TypeError) as exc:
            raise AuthorizationError(f"malformed submission: {exc}") from exc
        if self.allowed_writers and submitter.to_bytes() not in self.allowed_writers:
            raise AuthorizationError("submitter is not on the write ACL")
        key = payload.get("key")
        preimage = _submission_preimage(
            self.capsule_name,
            data,
            key=key,
            expect_seqno=payload.get("expect_seqno"),
        )
        if not submitter.verify(preimage, signature):
            raise AuthorizationError("submission signature invalid")
        if self.authorizer is not None:
            self.authorizer(self, submitter.to_bytes(), key, payload)

    def _serialize_and_commit(self, pdu: Pdu, payload: dict) -> Future:
        """Append submissions strictly one at a time (the serialization
        responsibility the writer carries, §V-A); concurrent arrivals
        chain behind each other.  CAS preconditions are judged here —
        when the submission's turn in the serial order comes, against
        the then-current version — never at arrival time."""
        result = self.ctx.future()
        previous = self._commit_chain
        self._commit_chain = result
        key = payload.get("key")
        expect = payload.get("expect_seqno")

        def run(_: Future | None = None) -> None:
            if key is not None and expect is not None and expect >= 0:
                current = self._key_versions.get(key, 0)
                if current != expect:
                    self._c_conflicts.inc()
                    result.resolve({
                        "ok": False,
                        "conflict": True,
                        "key": key,
                        "winning_seqno": current,
                        "expected": expect,
                        "shard": self.shard_index,
                        "error": (
                            f"commit conflict on {key!r}: expected "
                            f"seqno {expect}, key is at {current}"
                        ),
                    })
                    return
            entry = {
                "submitter": payload["submitter"],
                "data": payload["data"],
            }
            if key is not None:
                entry["key"] = key
                entry["shard"] = self.shard_index
            process = self.ctx.spawn(
                self._writer.append(encoding.encode(entry)),
                name="commit.append",
            )

            def done(fut: Future) -> None:
                try:
                    receipt = fut.result()
                except Exception as exc:  # noqa: BLE001 — reported to client
                    result.resolve({"ok": False, "error": str(exc)})
                    return
                if key is not None:
                    self._key_versions[key] = receipt.seqno
                self._c_committed.inc()
                self.commit_log.append({
                    "seqno": receipt.seqno,
                    "key": key,
                    "expect": NO_PRECONDITION if expect is None else expect,
                    "submitter": payload["submitter"],
                })
                result.resolve({
                    "ok": True,
                    "seqno": receipt.seqno,
                    "acks": receipt.acks,
                    "shard": self.shard_index,
                })

            process.completion.add_callback(done)

        if previous is None or previous.done:
            run()
        else:
            previous.add_callback(run)
        return result


class ShardedCommitService(GdpClient):
    """The commit-plane front: owns the shards and serves the signed
    :class:`ShardMap`, which clients verify once and route by."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        shards: Sequence[CommitShard],
        *,
        key: SigningKey | None = None,
    ):
        super().__init__(network, node_id, key=key)
        if not shards:
            raise CapsuleError("a commit plane needs at least one shard")
        self.shards = list(shards)
        for index, shard in enumerate(self.shards):
            shard.shard_index = index
            shard.shard_count = len(self.shards)
        self._map: ShardMap | None = None
        self._c_map_served = self.metrics.counter("commit.map_served")

    @property
    def shard_map(self) -> ShardMap:
        """The current signed shard map."""
        if self._map is None:
            raise CapsuleError("commit plane not created yet")
        return self._map

    def allow_writer(self, key: VerifyingKey) -> None:
        """Add a key to every shard's write ACL."""
        for shard in self.shards:
            shard.allow_writer(key)

    def create(
        self,
        console: OwnerConsole,
        server_metadatas: Sequence[Metadata],
        *,
        scopes: Sequence[str] = (),
        acks: str = "any",
        per_shard_servers: Sequence[Sequence[Metadata]] | None = None,
    ) -> Generator:
        """Create every shard's backing log and sign the shard map;
        returns the :class:`ShardMap`.  ``per_shard_servers`` assigns a
        distinct replica set per shard (the scaling deployment — shard
        logs on disjoint servers append in parallel)."""
        capsules: list[GdpName] = []
        for index, shard in enumerate(self.shards):
            servers = (
                per_shard_servers[index]
                if per_shard_servers is not None
                else server_metadatas
            )
            name = yield from shard.create_capsule(
                console, servers, scopes=scopes, acks=acks
            )
            capsules.append(name)
        self._map = ShardMap.issue(
            self.key,
            1,
            [shard.name for shard in self.shards],
            capsules,
        )
        return self._map

    def on_request(self, pdu: Pdu) -> Any:
        """Serve one application request through the shared op registry."""
        return dispatch_op(self, pdu, pdu.payload)

    @op("shard_map")
    def _op_shard_map(self, pdu: Pdu, payload: dict) -> Any:
        if self._map is None:
            return {"ok": False, "error": "service not ready"}
        self._c_map_served.inc()
        return {"ok": True, "map": self._map.to_wire()}


def _submission_preimage(
    capsule_name: GdpName,
    data: bytes,
    *,
    key: str | None = None,
    expect_seqno: int | None = None,
) -> bytes:
    """The bytes a submitter signs.  Keyless submissions keep the v1
    domain (wire compatibility); keyed submissions sign the v2 domain
    covering the key and precondition, so neither can be stripped or
    rewritten between submitter and shard."""
    if key is None:
        return _DOMAIN_SUBMIT + encoding.encode([capsule_name.raw, data])
    expect = NO_PRECONDITION if expect_seqno is None else expect_seqno
    return _DOMAIN_SUBMIT_V2 + encoding.encode(
        [capsule_name.raw, key, expect, data]
    )


def build_submission(
    signing_key: SigningKey,
    capsule_name: GdpName,
    data: bytes,
    *,
    key: str | None = None,
    expect_seqno: int | None = None,
    credential: dict | None = None,
) -> dict:
    """The signed ``submit`` payload for one update."""
    payload = {
        "op": "submit",
        "submitter": signing_key.public.to_bytes(),
        "data": data,
        "signature": signing_key.sign(
            _submission_preimage(
                capsule_name, data, key=key, expect_seqno=expect_seqno
            )
        ),
    }
    if key is not None:
        payload["key"] = key
        if expect_seqno is not None:
            payload["expect_seqno"] = expect_seqno
    if credential is not None:
        payload["credential"] = credential
    return payload


def _reply_body(reply: Any) -> dict:
    return reply.get("body", reply) if isinstance(reply, dict) else reply


def _raise_rejection(body: dict, key: str | None) -> None:
    """Map a rejection envelope to the right exception."""
    if body.get("conflict"):
        raise CommitConflictError(
            body.get("key", key or ""),
            body.get("winning_seqno", 0),
            body.get("expected", 0),
        )
    raise CapsuleError(body.get("error", "commit rejected"))


class CommitClient:
    """Client-side routing for the commit plane.

    Fetches and verifies the signed shard map once, then submits
    directly to the owning shard.  A ``wrong_shard`` answer (stale map
    after a re-shard) refreshes the map and retries once; a conflict
    raises :class:`~repro.errors.CommitConflictError` with the winning
    seqno so callers can rebase (or use :meth:`submit_cas`, which
    retries with jittered exponential backoff).
    """

    def __init__(
        self,
        client: GdpClient,
        front_name: GdpName,
        *,
        coordinator_key: VerifyingKey | None = None,
        rng: random.Random | None = None,
    ):
        self.client = client
        self.front_name = front_name
        self.coordinator_key = coordinator_key
        self._map: ShardMap | None = None
        self._rng = rng or random.Random(
            f"commit-client:{client.node_id}"
        )

    @property
    def shard_map(self) -> ShardMap | None:
        """The verified shard map, if fetched."""
        return self._map

    def backoff_delay(
        self, attempt: int, *, base_delay: float = 0.05
    ) -> float:
        """Jittered exponential backoff for CAS retry *attempt* (0-based).
        Jitter is drawn from this client's own seeded stream, so retry
        schedules stay deterministic per client in simulation."""
        return (
            base_delay * (2 ** min(attempt, 6)) * (0.5 + self._rng.random())
        )

    def fetch_map(self, *, timeout: float = 30.0) -> Generator:
        """Fetch + verify the shard map from the front; returns it."""
        reply = yield self.client.rpc(
            self.front_name, {"op": "shard_map"}, timeout=timeout
        )
        body = _reply_body(reply)
        if not body.get("ok"):
            raise CapsuleError(body.get("error", "no shard map"))
        shard_map = ShardMap.from_wire(body["map"])
        if self.coordinator_key is not None:
            shard_map.verify(self.coordinator_key)
        self._map = shard_map
        return shard_map

    def _submit_to(
        self,
        index: int,
        data: bytes,
        key: str | None,
        expect_seqno: int | None,
        credential: dict | None,
        timeout: float,
    ) -> Generator:
        payload = build_submission(
            self.client.key,
            self._map.capsules[index],
            data,
            key=key,
            expect_seqno=expect_seqno,
            credential=credential,
        )
        reply = yield self.client.rpc(
            self._map.services[index], payload, timeout=timeout
        )
        return _reply_body(reply)

    def submit(
        self,
        data: bytes,
        *,
        key: str | None = None,
        expect_seqno: int | None = None,
        credential: dict | None = None,
        timeout: float = 30.0,
    ) -> Generator:
        """Submit one update; returns a :class:`CommitReceipt`.  Raises
        :class:`~repro.errors.CommitConflictError` when a CAS
        precondition lost, :class:`~repro.errors.CapsuleError` on any
        other rejection."""
        if self._map is None:
            yield from self.fetch_map(timeout=timeout)
        index = self._map.route(key, data)
        body = yield from self._submit_to(
            index, data, key, expect_seqno, credential, timeout
        )
        if body.get("wrong_shard"):
            # Stale map (the plane re-sharded): refresh and retry once.
            yield from self.fetch_map(timeout=timeout)
            index = self._map.route(key, data)
            body = yield from self._submit_to(
                index, data, key, expect_seqno, credential, timeout
            )
        if not body.get("ok"):
            _raise_rejection(body, key)
        return CommitReceipt(
            body["seqno"],
            acks=body.get("acks", 1),
            shard=body.get("shard", index),
            capsule=self._map.capsules[body.get("shard", index)],
            key=key,
        )

    def submit_cas(
        self,
        key: str,
        build: Callable[[int], bytes],
        *,
        expect_seqno: int = 0,
        attempts: int = 8,
        base_delay: float = 0.05,
        credential: dict | None = None,
        timeout: float = 30.0,
    ) -> Generator:
        """The rebase/retry loop: ``build(current_seqno)`` produces the
        update payload against the version the key is currently at; a
        conflict rebases onto the winning seqno and retries after a
        jittered exponential backoff.  Returns the winning
        :class:`CommitReceipt` or re-raises the final conflict."""
        expect = expect_seqno
        conflict: CommitConflictError | None = None
        for attempt in range(attempts):
            try:
                receipt = yield from self.submit(
                    build(expect),
                    key=key,
                    expect_seqno=expect,
                    credential=credential,
                    timeout=timeout,
                )
                return receipt
            except CommitConflictError as exc:
                conflict = exc
                expect = exc.winning_seqno
                yield self.backoff_delay(attempt, base_delay=base_delay)
        raise conflict


def read_committed_entry(record_payload: bytes) -> dict:
    """Unwrap a committed record with full provenance: ``submitter`` /
    ``data`` plus ``key`` / ``shard`` for keyed submissions (None for
    keyless v1 records)."""
    entry = encoding.decode(record_payload)
    return {
        "submitter": entry["submitter"],
        "data": entry["data"],
        "key": entry.get("key"),
        "shard": entry.get("shard"),
    }
