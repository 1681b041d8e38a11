"""Common Access APIs (CAAPIs): richer interfaces over DataCapsules
(§V-B) — filesystem, key-value store, time-series, lossy streams, the
sharded multi-writer commit plane, and aggregation."""

from repro.caapi.aggregation import AggregationService
from repro.caapi.audit import AuditedLog, AuditProof
from repro.caapi.base import CapsuleApp, create_backed_capsule
from repro.caapi.commit_service import (
    CommitClient,
    CommitReceipt,
    CommitShard,
    ShardedCommitService,
    ShardMap,
    read_committed_entry,
    shard_of,
)
from repro.caapi.filesystem import (
    CapsuleFileSystem,
    grant_write,
    path_write_authorizer,
    writer_principal,
)
from repro.caapi.gateway import GatewayService, LegacyHttpClient
from repro.caapi.kvstore import CapsuleKVStore
from repro.caapi.stream import Frame, StreamPublisher, StreamSubscriber
from repro.caapi.timeseries import Sample, TimeSeriesLog

__all__ = [
    "CapsuleApp",
    "create_backed_capsule",
    "CapsuleFileSystem",
    "grant_write",
    "path_write_authorizer",
    "writer_principal",
    "CapsuleKVStore",
    "TimeSeriesLog",
    "Sample",
    "StreamPublisher",
    "StreamSubscriber",
    "Frame",
    "CommitShard",
    "ShardedCommitService",
    "ShardMap",
    "CommitClient",
    "CommitReceipt",
    "shard_of",
    "read_committed_entry",
    "AggregationService",
    "GatewayService",
    "LegacyHttpClient",
    "AuditedLog",
    "AuditProof",
]
