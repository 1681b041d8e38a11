"""DataCapsules: the paper's primary contribution.

Single-writer, append-only authenticated data structures with
configurable hash-pointers, signed heartbeats, verifiable read proofs,
sealed payloads, and branch handling for quasi-single-writer recovery.
"""

from repro.capsule.capsule import DataCapsule, build_record
from repro.capsule.hashptr import (
    ChainStrategy,
    CheckpointStrategy,
    PointerStrategy,
    SkipListStrategy,
    StreamStrategy,
    get_strategy,
)
from repro.capsule.heartbeat import Heartbeat, detect_equivocation
from repro.capsule.proofs import (
    PositionProof,
    RangeProof,
    build_position_proof,
    build_range_proof,
)
from repro.capsule.reader import VerifyingReader
from repro.capsule.records import Record, metadata_anchor
from repro.capsule.sealed import ContentKey, ReadGrant, open_payload, seal_payload
from repro.capsule.writer import CapsuleWriter, QuasiWriter, WriterState

__all__ = [
    "DataCapsule",
    "build_record",
    "Record",
    "metadata_anchor",
    "Heartbeat",
    "detect_equivocation",
    "PointerStrategy",
    "ChainStrategy",
    "SkipListStrategy",
    "CheckpointStrategy",
    "StreamStrategy",
    "get_strategy",
    "PositionProof",
    "RangeProof",
    "build_position_proof",
    "build_range_proof",
    "CapsuleWriter",
    "QuasiWriter",
    "WriterState",
    "VerifyingReader",
    "ContentKey",
    "ReadGrant",
    "seal_payload",
    "open_payload",
]
