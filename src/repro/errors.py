"""Exception hierarchy for the GDP reproduction.

All library-raised exceptions derive from :class:`GdpError` so callers can
catch the whole family with a single clause.  Subsystems raise the most
specific subclass that applies; security-relevant failures derive from
:class:`SecurityError` so that integrity violations are never silently
conflated with operational errors (e.g. a missing record vs a forged one).
"""

from __future__ import annotations


class GdpError(Exception):
    """Base class for all errors raised by this library."""


class EncodingError(GdpError):
    """Malformed or non-canonical serialized data."""


class SecurityError(GdpError):
    """Base class for integrity / authenticity / authorization failures."""


class SignatureError(SecurityError):
    """A digital signature failed to verify."""


class IntegrityError(SecurityError):
    """A hash-pointer chain, proof, or MAC failed to verify."""


class AuthorizationError(SecurityError):
    """An operation was attempted without a valid delegation."""


class DelegationError(SecurityError):
    """A delegation certificate (AdCert / RtCert) is invalid or expired."""


class EquivocationError(SecurityError):
    """Two conflicting signed statements were produced for the same slot."""


class NameError_(GdpError):
    """A flat GDP name is malformed or does not match its preimage."""


class CapsuleError(GdpError):
    """Base class for DataCapsule operational errors."""


class RecordNotFoundError(CapsuleError):
    """The requested record sequence number is not (yet) available."""


class HoleError(CapsuleError):
    """A gap in the hash-pointer chain prevents the requested operation."""


class BranchError(CapsuleError):
    """A quasi-single-writer branch prevents a total order."""


class WriterStateError(CapsuleError):
    """The writer's persistent state is missing or inconsistent."""


class CommitConflictError(CapsuleError):
    """An optimistic (compare-seqno) submission lost the race: the key
    advanced past the submitted precondition.  Carries enough context to
    rebase and retry."""

    def __init__(self, key: str, winning_seqno: int, expected: int):
        super().__init__(
            f"commit conflict on key {key!r}: expected seqno {expected}, "
            f"key is at {winning_seqno}"
        )
        self.key = key
        self.winning_seqno = winning_seqno
        self.expected = expected


class RoutingError(GdpError):
    """Base class for GDP-network routing failures."""


class NoRouteError(RoutingError):
    """No verified route to the destination name exists."""


class AdvertisementError(RoutingError, SecurityError):
    """A secure advertisement failed verification."""


class ScopeViolationError(RoutingError, SecurityError):
    """A routing entry would escape its owner-declared placement scope."""


class TransportError(GdpError):
    """Network transport failure (drop, partition, closed peer, timeout)."""


class WireFormatError(TransportError, EncodingError):
    """A binary frame or PDU failed to parse (truncated, oversized,
    garbage, or unknown type code)."""


class TimeoutError_(TransportError):
    """An operation did not complete within its deadline."""


class DurabilityError(CapsuleError):
    """The requested durability (ack) policy could not be satisfied."""


class StorageError(GdpError):
    """Backend storage failure on a DataCapsule-server."""


def expect_bytes(value: object, what: str, error: type[GdpError]) -> bytes:
    """*value* if it is ``bytes``, else raise *error*: a parser never
    calls ``bytes()`` on a wire value, which turns an int into that many
    zero bytes."""
    if not isinstance(value, bytes):
        raise error(f"{what} must be bytes, got {type(value).__name__}")
    return value
