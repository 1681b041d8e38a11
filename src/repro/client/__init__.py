"""GDP client library: verified capsule operations and owner tools."""

from repro.client.client import ClientWriter, GdpClient
from repro.client.owner import CapsulePlacement, OwnerConsole
from repro.client.results import AppendReceipt, ReadResult

__all__ = [
    "GdpClient",
    "ClientWriter",
    "ReadResult",
    "AppendReceipt",
    "OwnerConsole",
    "CapsulePlacement",
]
