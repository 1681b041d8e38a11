"""Key-value store CAAPI.

"It should come as no surprise that DataCapsules are sufficient to
implement any convenient, mutable data storage repository" (§V-B).  This
CAAPI materializes a mutable map from an append-only log of put/delete
operations, with periodic *snapshot* records so late readers replay
O(snapshot interval) records instead of the whole history.

Snapshot records pair naturally with the ``checkpoint:K`` pointer
strategy: a reader can hop checkpoint-to-checkpoint to the latest
snapshot with O(n/K) proof work, then replay the tail.

Two write paths:

- **direct** (the default): this store is the capsule's single writer.
- **commit plane** (pass ``commit=CommitClient(...)``): mutations are
  optimistic-CAS submissions keyed by the kv key, so many writers can
  safely share one store.  The writer-side ``_view`` becomes a verified
  cache — invalidated on conflict, rebased onto the winning seqno, and
  retried with jittered backoff.  Reads replay the commit plane's shard
  logs (each key lives in exactly one shard, so per-key order is exactly
  shard-log order).
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

from repro import encoding
from repro.caapi.base import CapsuleApp
from repro.caapi.commit_service import CommitClient, read_committed_entry
from repro.client.client import GdpClient
from repro.client.owner import OwnerConsole
from repro.crypto.keys import SigningKey
from repro.errors import (
    CapsuleError,
    CommitConflictError,
    RecordNotFoundError,
)
from repro.naming.metadata import Metadata

__all__ = ["CapsuleKVStore"]

_OP_PUT = "put"
_OP_DELETE = "del"
_OP_SNAPSHOT = "snap"

#: CAS retry budget before a mutation gives up and re-raises
_CAS_ATTEMPTS = 8
#: base for the jittered exponential backoff between CAS retries
_CAS_BASE_DELAY = 0.05


class CapsuleKVStore(CapsuleApp):
    """A mutable string-keyed map over one DataCapsule (or, in
    multi-writer mode, over a sharded commit plane)."""

    CAAPI_KIND = "kvstore"
    CAAPI_LABEL = "caapi.kvstore"
    WRITER_SEED = b"kvwriter:"

    def __init__(
        self,
        client: GdpClient,
        console: OwnerConsole,
        server_metadatas: Sequence[Metadata],
        *,
        writer_key: SigningKey | None = None,
        snapshot_interval: int = 64,
        scopes: Sequence[str] = (),
        acks: str = "any",
        commit: CommitClient | None = None,
    ):
        if snapshot_interval < 2:
            raise CapsuleError("snapshot_interval must be >= 2")
        super().__init__(
            client,
            console,
            server_metadatas,
            writer_key=writer_key,
            scopes=scopes,
            acks=acks,
        )
        self.snapshot_interval = snapshot_interval
        self.commit = commit
        self._view: dict[str, Any] = {}  # writer-side materialized state
        self._since_snapshot = 0
        #: commit mode: kv key -> last-known shard seqno (CAS expects)
        self._versions: dict[str, int] = {}

    def _pointer_strategy(self) -> str:
        return f"checkpoint:{self.snapshot_interval}"

    # -- mutation (writer side) ----------------------------------------------

    def _log(self, entry: dict) -> Generator:
        if self._writer is None:
            raise CapsuleError("store is read-only (mounted) or not created")
        yield from self._writer.append(encoding.encode(entry))
        self._since_snapshot += 1
        if self._since_snapshot >= self.snapshot_interval:
            yield from self._snapshot()

    def _snapshot(self) -> Generator:
        assert self._writer is not None
        snap = {"op": _OP_SNAPSHOT, "state": dict(self._view)}
        yield from self._writer.append(encoding.encode(snap))
        self._since_snapshot = 0

    def _submit_mutation(self, key: str, entry: dict) -> Generator:
        """Commit-plane CAS loop: submit with the last seqno we saw for
        *key* as the precondition; on conflict, invalidate the cached
        value, rebase onto the winning seqno, back off, retry."""
        assert self.commit is not None
        expect = self._versions.get(key, 0)
        conflict: CommitConflictError | None = None
        for attempt in range(_CAS_ATTEMPTS):
            try:
                receipt = yield from self.commit.submit(
                    encoding.encode(entry), key=key, expect_seqno=expect
                )
                self._versions[key] = receipt.seqno
                return receipt
            except CommitConflictError as exc:
                conflict = exc
                expect = exc.winning_seqno
                self._versions[key] = expect
                self._view.pop(key, None)  # cache no longer trustworthy
                yield self.commit.backoff_delay(
                    attempt, base_delay=_CAS_BASE_DELAY
                )
        raise conflict

    def put(self, key: str, value: Any) -> Generator:
        """Bind *key* to *value* (any wire-encodable value)."""
        entry = {"op": _OP_PUT, "key": key, "value": value}
        if self.commit is not None:
            yield from self._submit_mutation(key, entry)
            self._view[key] = value
            return
        self._view[key] = value
        yield from self._log(entry)

    def delete(self, key: str) -> Generator:
        """Remove a key; raises if absent."""
        if self.commit is not None:
            view = yield from self._replay()
            if key not in view:
                raise RecordNotFoundError(f"no such key {key!r}")
            yield from self._submit_mutation(
                key, {"op": _OP_DELETE, "key": key}
            )
            self._view.pop(key, None)
            return
        if key not in self._view:
            raise RecordNotFoundError(f"no such key {key!r}")
        del self._view[key]
        yield from self._log({"op": _OP_DELETE, "key": key})

    # -- reads (any client) ------------------------------------------------------

    def _replay(self) -> Generator:
        """Verified rebuild of the map: find the latest snapshot, replay
        the tail (direct mode), or replay the commit plane's shard logs
        (commit mode)."""
        if self.commit is not None:
            view = yield from self._replay_commit()
            return view
        name = self.name
        latest = yield from self.client.read_latest(name)
        if latest is None:
            return {}
        last = latest.record.seqno
        # Walk backwards to the nearest snapshot (bounded by interval).
        view: dict[str, Any] = {}
        start = 1
        for seqno in range(last, max(0, last - self.snapshot_interval), -1):
            result = yield from self.client.read(name, seqno)
            entry = encoding.decode(result.record.payload)
            if entry["op"] == _OP_SNAPSHOT:
                view = dict(entry["state"])
                start = seqno + 1
                break
        else:
            start = max(1, last - self.snapshot_interval + 1)
            if start > 1:
                # No snapshot in the window: fall back to full replay.
                start = 1
        if start <= last:
            result = yield from self.client.read_range(name, start, last)
            for record in result.records:
                entry = encoding.decode(record.payload)
                if entry["op"] == _OP_PUT:
                    view[entry["key"]] = entry["value"]
                elif entry["op"] == _OP_DELETE:
                    view.pop(entry["key"], None)
        return view

    def _replay_commit(self) -> Generator:
        """Rebuild the map from every shard log, unwrapping the commit
        plane's provenance wrapper.  Shards are replayed sequentially —
        safe because the key→shard map puts each key's whole history in
        one shard.  Refreshes the CAS version cache as a side effect."""
        assert self.commit is not None
        shard_map = self.commit.shard_map
        if shard_map is None:
            shard_map = yield from self.commit.fetch_map()
        view: dict[str, Any] = {}
        for capsule in shard_map.capsules:
            result = yield from self.client.read_range(capsule, 1)
            if result is None:
                continue
            for record in result.records:
                wrapped = read_committed_entry(record.payload)
                entry = encoding.decode(wrapped["data"])
                if wrapped["key"] is not None:
                    self._versions[wrapped["key"]] = record.seqno
                if entry["op"] == _OP_PUT:
                    view[entry["key"]] = entry["value"]
                elif entry["op"] == _OP_DELETE:
                    view.pop(entry["key"], None)
        return view

    def get(self, key: str) -> Generator:
        """Verified lookup of one key; raises if absent."""
        view = yield from self._replay()
        if key not in view:
            raise RecordNotFoundError(f"no such key {key!r}")
        return view[key]

    def keys(self) -> Generator:
        """Sorted live keys (verified replay)."""
        view = yield from self._replay()
        return sorted(view)

    def items(self) -> Generator:
        """The full verified map."""
        view = yield from self._replay()
        return dict(view)
