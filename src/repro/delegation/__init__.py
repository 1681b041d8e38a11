"""Cryptographic delegations: AdCerts, RtCerts, organization
memberships, placements, and chain verification."""

from repro.delegation.certs import AdCert, OrgMembership, Placement, RtCert, SubGrant
from repro.delegation.chain import (
    ServiceChain,
    verify_routing_chain,
    verify_service_chain,
)

__all__ = [
    "AdCert",
    "RtCert",
    "OrgMembership",
    "SubGrant",
    "Placement",
    "ServiceChain",
    "verify_service_chain",
    "verify_routing_chain",
]
