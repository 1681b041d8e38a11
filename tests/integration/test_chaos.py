"""Chaos: randomized fault schedules with end-state invariants.

A seeded random mix of appends (random durability), reads, server
crashes/restarts, and network partitions runs against a 3-replica
capsule with anti-entropy daemons.  Afterwards everything heals and the
invariants must hold:

1. every replica converges to the same record set;
2. the converged history verifies end-to-end (no corruption, ever);
3. no record acknowledged under ``acks=all`` is missing;
4. a fresh reader can verify the whole surviving history.

Randomness is deterministic per seed, so failures replay exactly.
"""

import pytest

from repro.errors import GdpError

N_OPERATIONS = 40


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_chaos_convergence(seed, small_net, seeded_rng):
    world = small_net(seed)
    net, hub, routers, links = world.net, world.hub, world.routers, world.links
    servers, daemons = world.servers, world.daemons
    client, console, writer_key = world.client, world.console, world.writer_key
    rng = seeded_rng(seed * 7919)
    durable_seqnos: list[int] = []
    log: list[str] = []

    def scenario():
        for endpoint in servers + [client]:
            yield endpoint.advertise()
        metadata = console.design_capsule(writer_key.public)
        yield from console.place_capsule(
            metadata, [s.metadata for s in servers]
        )
        yield 0.5
        for daemon in daemons:
            daemon.start()
        writer = client.open_writer(metadata, writer_key)
        appended = 0
        for step in range(N_OPERATIONS):
            action = rng.random()
            if action < 0.55:
                policy = rng.choice(["any", "any", "quorum", "all"])
                try:
                    receipt = yield from writer.append(
                        b"chaos-%d" % step, acks=policy
                    )
                    record, acks = receipt.record, receipt.acks
                    appended += 1
                    if policy == "all" and acks == 3:
                        durable_seqnos.append(record.seqno)
                    log.append(f"append#{record.seqno} {policy} acks={acks}")
                except GdpError as exc:
                    log.append(f"append failed ({policy}): {type(exc).__name__}")
            elif action < 0.70:
                try:
                    yield from client.read_latest(metadata.name)
                    log.append("read ok")
                except GdpError as exc:
                    log.append(f"read failed: {type(exc).__name__}")
            elif action < 0.85:
                victim = rng.randrange(3)
                if servers[victim].crashed:
                    servers[victim].restart()
                    log.append(f"restart s{victim}")
                elif sum(not s.crashed for s in servers) > 1:
                    servers[victim].crash()
                    log.append(f"crash s{victim}")
            else:
                link = links[rng.randrange(3)]
                if link.up:
                    link.fail()
                    log.append("partition")
                else:
                    link.recover()
                    for router in routers + [hub]:
                        router.flush_fib()
                    log.append("heal")
            yield rng.uniform(0.1, 1.0)
        # Heal everything and let anti-entropy converge.
        for link in links:
            if not link.up:
                link.recover()
        for router in routers + [hub]:
            router.flush_fib()
        for server in servers:
            if server.crashed:
                server.restart()
        deadline = net.sim.now + 120.0
        while net.sim.now < deadline:
            summaries = {
                tuple(sorted(
                    (int(k), tuple(v))
                    for k, v in s.hosted[metadata.name]
                    .capsule.state_summary()["digests"].items()
                ))
                for s in servers
            }
            if len(summaries) == 1:
                break
            yield 2.0
        for daemon in daemons:
            daemon.stop()
        return metadata, appended

    metadata, appended = net.sim.run_process(scenario())

    # Invariant 1: convergence.
    reference = servers[0].hosted[metadata.name].capsule.state_summary()
    for server in servers[1:]:
        assert (
            server.hosted[metadata.name].capsule.state_summary() == reference
        ), f"replicas diverged (seed={seed}):\n" + "\n".join(log)

    # Invariant 2: whatever survived verifies (skip if nothing did).
    survivor = servers[0].hosted[metadata.name].capsule
    if survivor.latest_heartbeat is not None and not survivor.holes():
        head = survivor.get(survivor.last_seqno)
        anchor = None
        for hb in survivor.heartbeats():
            if hb.digest == head.digest:
                anchor = hb
        if anchor is not None:
            assert survivor.verify_history(anchor) == survivor.last_seqno

    # Invariant 3: acks=all records are on every replica.
    for seqno in durable_seqnos:
        for server in servers:
            capsule = server.hosted[metadata.name].capsule
            assert seqno in capsule.seqnos(), (
                f"durable record {seqno} lost on {server.node_id} "
                f"(seed={seed}):\n" + "\n".join(log)
            )
