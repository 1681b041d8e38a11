"""The GDP network: flat-namespace routing over federated trust domains.

GDP-routers, routing domains, GLookupServices, secure advertisements,
anycast, and a Kademlia DHT backend for the global lookup tier.
"""

from repro.routing.anycast import rank_entries, select_entry
from repro.routing.dht_glookup import DhtGLookupService
from repro.routing.dht import KademliaDht
from repro.routing.domain import RoutingDomain
from repro.routing.endpoint import Endpoint
from repro.routing.glookup import GLookupService, RouteEntry
from repro.routing.lease import LeaseRefreshDaemon
from repro.routing.pdu import Pdu
from repro.routing.router import GdpRouter

__all__ = [
    "Pdu",
    "GdpRouter",
    "RoutingDomain",
    "GLookupService",
    "RouteEntry",
    "Endpoint",
    "LeaseRefreshDaemon",
    "select_entry",
    "rank_entries",
    "KademliaDht",
    "DhtGLookupService",
]
