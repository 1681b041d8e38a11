"""repro — reproduction of *Global Data Plane: A Federated Vision for
Secure Data in Edge Computing* (Mor et al., ICDCS 2019).

The package implements the paper's two contributions and every substrate
they rest on:

- **DataCapsules** (:mod:`repro.capsule`): single-writer, append-only
  authenticated data structures with configurable hash-pointers, signed
  heartbeats, and verifiable read proofs.
- **Global Data Plane** (:mod:`repro.routing`, :mod:`repro.server`,
  :mod:`repro.client`): a federated flat-namespace network of GDP-routers,
  DataCapsule-servers, hierarchical GLookupServices, secure
  advertisements, and cryptographic delegations (AdCerts / RtCerts).

Supporting substrates: a from-scratch crypto stack
(:mod:`repro.crypto`), a discrete-event network simulator
(:mod:`repro.sim`), richer CAAPI interfaces (:mod:`repro.caapi`),
baseline systems for the paper's case study (:mod:`repro.baselines`),
and adversarial fault injection (:mod:`repro.adversary`).

Quickstart (see also ``examples/quickstart.py``)::

    from repro import (
        SigningKey, make_capsule_metadata, DataCapsule, CapsuleWriter,
    )

    owner = SigningKey.generate()
    writer_key = SigningKey.generate()
    metadata = make_capsule_metadata(owner, writer_key.public,
                                     pointer_strategy="skiplist")
    writer = CapsuleWriter(metadata, writer_key)
    record, heartbeat = writer.append(b"hello, federated world")
    replica = DataCapsule(metadata)  # what a DataCapsule-server holds
    replica.admit([record], heartbeat)
"""

__version__ = "1.0.0"

from repro.capsule import (
    CapsuleWriter,
    DataCapsule,
    Heartbeat,
    PositionProof,
    QuasiWriter,
    RangeProof,
    Record,
    VerifyingReader,
    build_position_proof,
    build_range_proof,
)
from repro.client import ClientWriter, GdpClient, OwnerConsole
from repro.crypto import SigningKey, VerifyingKey, generate_keypair
from repro.delegation import AdCert, RtCert, ServiceChain
from repro.naming import (
    GdpName,
    Metadata,
    make_capsule_metadata,
    make_client_metadata,
    make_server_metadata,
)
from repro.routing import GdpRouter, RoutingDomain
from repro.server import DataCapsuleServer
from repro.sim import SimNetwork

__all__ = [
    "__version__",
    # crypto
    "SigningKey",
    "VerifyingKey",
    "generate_keypair",
    # naming
    "GdpName",
    "Metadata",
    "make_capsule_metadata",
    "make_server_metadata",
    "make_client_metadata",
    # capsule
    "DataCapsule",
    "Record",
    "Heartbeat",
    "CapsuleWriter",
    "QuasiWriter",
    "VerifyingReader",
    "PositionProof",
    "RangeProof",
    "build_position_proof",
    "build_range_proof",
    # delegation
    "AdCert",
    "RtCert",
    "ServiceChain",
    # network
    "SimNetwork",
    "GdpRouter",
    "RoutingDomain",
    "DataCapsuleServer",
    "GdpClient",
    "ClientWriter",
    "OwnerConsole",
]
