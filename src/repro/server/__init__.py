"""DataCapsule-servers: storage, durability policies, secure responses,
and leaderless anti-entropy replication."""

from repro.server.dcserver import DataCapsuleServer, HostedCapsule
from repro.server.durability import ALL, ANY, QUORUM, AckPolicy, FsyncPolicy
from repro.server.segmented import (
    CRASH_POINTS,
    SegmentedStore,
    SegmentInfo,
    SimulatedCrash,
)
from repro.server.replication import AntiEntropyDaemon, sync_once
from repro.server.secure import (
    mac_response,
    open_response,
    sign_response,
    verify_mac_response,
    verify_signed_response,
)
from repro.server.storage import MemoryStore, StorageBackend

__all__ = [
    "DataCapsuleServer",
    "HostedCapsule",
    "AckPolicy",
    "ANY",
    "QUORUM",
    "ALL",
    "AntiEntropyDaemon",
    "sync_once",
    "FsyncPolicy",
    "StorageBackend",
    "MemoryStore",
    "SegmentedStore",
    "SegmentInfo",
    "SimulatedCrash",
    "CRASH_POINTS",
    "open_response",
    "sign_response",
    "verify_signed_response",
    "mac_response",
    "verify_mac_response",
]
