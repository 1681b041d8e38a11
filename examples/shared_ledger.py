#!/usr/bin/env python3
"""Multi-writer collaboration through a commit service (§V-A).

DataCapsules have exactly one writer — on purpose.  The paper's first
multi-writer accommodation is "a distributed commit service that accepts
updates from multiple writers, serializes them, and appends them to a
DataCapsule"; the commit service *is* the single writer, separating
write decisions from durability responsibilities.

This example builds a shared maintenance ledger for a factory: three
technicians submit signed entries concurrently; the commit service
enforces a write ACL, serializes, and appends; auditors read a totally
ordered, provenance-preserving log where every entry still carries its
original submitter's signature.

Run:  python examples/shared_ledger.py
"""

from repro.caapi import (
    CommitClient,
    CommitShard,
    ShardedCommitService,
    read_committed_entry,
)
from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.routing import GdpRouter, RoutingDomain
from repro.server import DataCapsuleServer
from repro.sim import GBPS, SimNetwork


def main():
    net = SimNetwork(seed=21)
    clock = lambda: net.sim.now  # noqa: E731
    root = RoutingDomain("global", clock=clock)
    plant = RoutingDomain("global.plant", root)
    r_root = GdpRouter(net, "r_root", root)
    r_plant = GdpRouter(net, "r_plant", plant)
    net.connect(r_plant, r_root, latency=0.012, bandwidth=GBPS)
    plant.attach_to_parent(r_plant, r_root)

    server = DataCapsuleServer(net, "ledger_server")
    server.attach(r_plant)

    # A one-shard commit plane: the shard serializes, the front serves
    # the signed shard map submitters route by.
    service = CommitShard(net, "commit_service")
    service.attach(r_plant)
    front = ShardedCommitService(net, "commit_front", [service])
    front.attach(r_plant)

    technicians = []
    for name in ("alice", "bob", "carol"):
        tech = GdpClient(net, name, key=SigningKey.from_seed(name.encode()))
        tech.attach(r_plant)
        technicians.append(tech)
        front.allow_writer(tech.key.public)

    auditor = GdpClient(net, "auditor")
    auditor.attach(r_root)
    intruder = GdpClient(net, "intruder", key=SigningKey.from_seed(b"evil"))
    intruder.attach(r_root)

    console = OwnerConsole(technicians[0], SigningKey.from_seed(b"plant-owner"))

    def scenario():
        for endpoint in [server, service, front, auditor, intruder] + technicians:
            yield endpoint.advertise()
        shard_map = yield from front.create(console, [server.metadata])
        ledger = shard_map.capsules[0]
        print(f"shared ledger {ledger.human()} online "
              f"(single writer = the commit service)")

        # Concurrent submissions from all three technicians.
        entries = [
            (technicians[0], b"replaced bearing on robot-7"),
            (technicians[1], b"calibrated conveyor encoder"),
            (technicians[2], b"firmware 4.2 on PLC bank B"),
            (technicians[0], b"verified robot-7 torque curve"),
        ]
        futures = []
        for tech, note in entries:
            commit = CommitClient(tech, front.name, coordinator_key=front.key.public)
            futures.append(net.sim.spawn(
                commit.submit(note), name=f"submit:{tech.node_id}",
            ).completion)
        receipts = yield net.sim.gather(futures)
        seqnos = sorted(receipt.seqno for receipt in receipts)
        print(f"4 concurrent submissions serialized to seqnos {seqnos}")

        # An unauthorized writer is refused at the ACL.
        try:
            yield from CommitClient(intruder, front.name).submit(
                b"definitely legit"
            )
            print("!! intruder entry accepted (must not happen)")
        except Exception as exc:
            print(f"intruder submission refused: {type(exc).__name__}")

        # The auditor replays the totally ordered ledger with provenance.
        yield 1.0
        result = yield from auditor.read_range(ledger, 1)
        tip = result.record.seqno
        key_names = {
            tech.key.public.to_bytes(): tech.node_id for tech in technicians
        }
        print("audited ledger (verified, totally ordered):")
        for record in result.records:
            entry = read_committed_entry(record.payload)
            who = key_names.get(entry["submitter"], "unknown")
            print(f"  #{record.seqno} [{who}] {entry['data'].decode()}")
        assert tip == 4
        return True

    net.sim.run_process(scenario())
    print(f"done at simulated t={net.sim.now:.2f}s; "
          f"committed={service.metrics.counter('commit.committed').value}, "
          f"rejected={service.metrics.counter('commit.rejected').value}")


if __name__ == "__main__":
    main()
