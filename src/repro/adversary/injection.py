"""Adversarial fault injection — exercising the threat model (§IV-C).

"Any messages can be arbitrarily delayed, replayed at a later time,
tampered with during transit, or sent to the wrong destination.
Similarly, a DataCapsule-server can attempt to tamper with individual
records or the order of records when stored on disk."

Network-path attacks are declared as delivery middlewares (see
:mod:`repro.runtime.faults`); :class:`PathAttacker` composes the four
fault kinds over one shared seeded RNG and installs them on the
network's delivery pipeline.  Storage attacks mutate a server's hosted
state (:class:`StorageTamperer`); :class:`EquivocatingWriter` is a
*malicious writer* signing two histories.  Tests use these to show each
attack is *detected* (an integrity/security error at the verifier),
never silently absorbed.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.capsule.capsule import DataCapsule
from repro.capsule.heartbeat import Heartbeat
from repro.capsule.records import Record
from repro.crypto.keys import SigningKey
from repro.naming.names import GdpName
from repro.routing.pdu import Pdu
from repro.runtime.faults import (
    DelayFaults,
    DropFaults,
    ReplayFaults,
    TamperFaults,
)
from repro.server.dcserver import DataCapsuleServer
from repro.runtime.network import Network

__all__ = [
    "PathAttacker",
    "StorageTamperer",
    "EquivocatingWriter",
    "forge_record",
]


class PathAttacker:
    """An on-path adversary manipulating PDUs in flight.

    Enable attacks by setting the rates/flags, then :meth:`install`.
    The attacker is a thin composition of the declarative fault
    middlewares in :mod:`repro.runtime.faults`, chained in the fixed
    order drop -> tamper -> replay -> delay over **one** shared seeded
    RNG, so a given seed reproduces the exact historical attack
    schedule.
    """

    def __init__(self, network: Network, *, seed: int = 1337):
        self.network = network
        self.rng = random.Random(seed)
        # The current match predicate is read through a level of
        # indirection so tests can swap self.match after construction.
        matcher = lambda pdu: self.match(pdu)  # noqa: E731
        common = {"rng": self.rng, "match": matcher}
        self._drop = DropFaults(network, **common)
        self._tamper = TamperFaults(network, **common)
        self._replay = ReplayFaults(network, **common)
        self._delay = DelayFaults(network, **common)
        self._faults = (self._drop, self._tamper, self._replay, self._delay)
        self.delay_seconds = 0.5
        self.match: Callable[[Pdu], bool] = lambda pdu: True
        self._installed = False

    # -- knobs proxied onto the underlying fault middlewares ----------------

    @property
    def drop_rate(self) -> float:
        """Probability a matching PDU is black-holed."""
        return self._drop.rate

    @drop_rate.setter
    def drop_rate(self, value: float) -> None:
        self._drop.rate = value

    @property
    def tamper_rate(self) -> float:
        """Probability a matching PDU is corrupted in flight."""
        return self._tamper.rate

    @tamper_rate.setter
    def tamper_rate(self, value: float) -> None:
        self._tamper.rate = value

    @property
    def replay_rate(self) -> float:
        """Probability a matching PDU is re-delivered later."""
        return self._replay.rate

    @replay_rate.setter
    def replay_rate(self, value: float) -> None:
        self._replay.rate = value

    @property
    def delay_rate(self) -> float:
        """Probability a matching PDU is delayed by ``delay_seconds``."""
        return self._delay.rate

    @delay_rate.setter
    def delay_rate(self, value: float) -> None:
        self._delay.rate = value

    @property
    def delay_seconds(self) -> float:
        """How far replayed/delayed PDUs are pushed into the future."""
        return self._delay.seconds

    @delay_seconds.setter
    def delay_seconds(self, value: float) -> None:
        self._replay.seconds = value
        self._delay.seconds = value

    @property
    def stats(self) -> dict:
        """Attack-hit counters, keyed by the historical short names."""
        return {
            "dropped": self._drop.count,
            "tampered": self._tamper.count,
            "replayed": self._replay.count,
            "delayed": self._delay.count,
        }

    def install(self) -> None:
        """Activate the fault middlewares on the network's delivery
        pipeline (in the fixed drop -> tamper -> replay -> delay
        order)."""
        if not self._installed:
            for fault in self._faults:
                fault.install()
            self._installed = True

    def uninstall(self) -> None:
        """Deactivate the fault middlewares."""
        if self._installed:
            for fault in self._faults:
                fault.uninstall()
            self._installed = False


class StorageTamperer:
    """A malicious DataCapsule-server mutating stored state."""

    def __init__(self, server: DataCapsuleServer):
        self.server = server

    def corrupt_record(self, capsule_name: GdpName, seqno: int) -> None:
        """Replace a stored record's payload (keeping its metadata) —
        the digest no longer matches, so reads fail verification.  The
        operator owns memory and disk: header and stored wire are forged."""
        hosted = self.server.hosted[capsule_name]
        capsule = hosted.capsule
        (record,) = self.server.stored_records(capsule_name, seqno)
        forged = Record(
            record.capsule,
            record.seqno,
            record.payload + b"!tampered!",
            record.pointers,
        )
        self.server.storage.append_entries(capsule_name, [("r", forged.to_wire())])
        # Reach into the replica the way a hostile operator would: swap
        # the header without updating any index.
        capsule._by_digest.pop(record.digest)
        capsule._by_digest[forged.digest] = forged.header()
        bucket = capsule._by_seqno[seqno]
        bucket[bucket.index(record.digest)] = forged.digest

    def rollback(self, capsule_name: GdpName, keep: int) -> None:
        """Serve a stale prefix: drop every record/heartbeat after
        *keep* (a freshness attack)."""
        hosted = self.server.hosted[capsule_name]
        capsule = hosted.capsule
        for seqno in [s for s in capsule.seqnos() if s > keep]:
            for digest in capsule._by_seqno.pop(seqno):
                capsule._by_digest.pop(digest, None)
        capsule._heartbeats = {
            seqno: beats
            for seqno, beats in capsule._heartbeats.items()
            if seqno <= keep
        }
        capsule._latest_heartbeat = None
        for beats in capsule._heartbeats.values():
            for heartbeat in beats:
                if (
                    capsule._latest_heartbeat is None
                    or heartbeat.seqno > capsule._latest_heartbeat.seqno
                ):
                    capsule._latest_heartbeat = heartbeat


class EquivocatingWriter:
    """A malicious single writer signing two divergent histories."""

    def __init__(self, capsule: DataCapsule, writer_key: SigningKey):
        self.capsule = capsule
        self.key = writer_key

    def fork_at(
        self, base: Record, payload_a: bytes, payload_b: bytes
    ) -> tuple[tuple[Record, Heartbeat], tuple[Record, Heartbeat]]:
        """Two signed (record, heartbeat) pairs for the same seqno on
        top of *base* — cryptographic proof of equivocation."""
        from repro.crypto.hashing import HashPointer

        seqno = base.seqno + 1
        out = []
        for payload in (payload_a, payload_b):
            record = Record(
                self.capsule.name,
                seqno,
                payload,
                [HashPointer(base.seqno, base.digest)],
            )
            heartbeat = Heartbeat.create(
                self.key, self.capsule.name, seqno, record.digest, seqno
            )
            out.append((record, heartbeat))
        return out[0], out[1]


def forge_record(
    capsule_name: GdpName, seqno: int, payload: bytes
) -> Record:
    """A syntactically valid record with made-up pointers — what an
    adversary without the writer key can best produce."""
    from repro.crypto.hashing import HashPointer

    fake_digest = bytes(32)
    pointers = [HashPointer(max(seqno - 1, 0), fake_digest)] if seqno > 1 else [
        HashPointer(0, fake_digest)
    ]
    return Record(capsule_name, seqno, payload, pointers)
