"""Discrete-event simulation substrate: engine, network, topologies,
workloads."""

from repro.sim.engine import Future, Process, Simulator
from repro.sim.net import Link, Node, SimNetwork
from repro.sim.topology import (
    GBPS,
    MBPS,
    Topology,
    build_dht,
    federated_campus,
    residential_edge_cloud,
    single_router,
)
from repro.sim.workload import (
    MODEL_LARGE,
    MODEL_SMALL,
    blob,
    poisson_arrivals,
    record_sizes,
    sensor_readings,
)

__all__ = [
    "Simulator",
    "Future",
    "Process",
    "SimNetwork",
    "Node",
    "Link",
    "Topology",
    "single_router",
    "residential_edge_cloud",
    "federated_campus",
    "build_dht",
    "MBPS",
    "GBPS",
    "blob",
    "record_sizes",
    "poisson_arrivals",
    "sensor_readings",
    "MODEL_SMALL",
    "MODEL_LARGE",
]
