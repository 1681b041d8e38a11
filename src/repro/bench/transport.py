"""Open-loop load generator (``repro loadgen``, suite ``transport``).

Drives a real (socket-mode) GDP fleet with an *open-loop* arrival
process: operations are injected on a fixed schedule regardless of how
fast earlier ones complete, so queueing delay shows up in the measured
latency instead of silently throttling the offered load (the
coordinated-omission trap of closed-loop generators).  Latency for op
*k* is ``completion_time - scheduled_start``, where the scheduled start
is ``k / rate`` — not the moment the op actually got to run.

Each level offers a fixed rate for a fixed duration against a capsule
replicated across two fleet processes, alternating appends and verified
reads, and reports p50/p99/p999 per op kind plus sustained PDU/s from
the client transport counters (``BENCH_transport.json``).
"""

from __future__ import annotations

import time

from repro.bench.gate import Gate, percentile

__all__ = ["run", "GATES", "table", "DEFAULT_RATES"]

#: Gated from the top load level.  Floor and ceilings sit far from any
#: healthy run — they catch collapse, not hardware variance.  Near
#: saturation a p99 in the tens of milliseconds can double from
#: scheduler jitter alone (a 100% relative move on a tiny absolute
#: base), so a latency regression must clear the 30% band *and* 75 ms.
GATES = (
    Gate("gated.pdus_per_sec", "higher", floor=100.0),
    Gate("gated.append_p99_ms", "lower", ceiling=500.0, slack=75.0),
    Gate("gated.read_p99_ms", "lower", ceiling=500.0, slack=75.0),
)

#: default offered rates (ops/second) — three open-loop levels, the top
#: one ~0.2x of one closed-loop client's rate (ROADMAP 6b re-levels them)
DEFAULT_RATES = (25, 50, 100)


def _latency_summary(samples_ms: list[float]) -> dict:
    return {
        "count": len(samples_ms),
        "p50": round(percentile(samples_ms, 0.50), 3),
        "p99": round(percentile(samples_ms, 0.99), 3),
        "p999": round(percentile(samples_ms, 0.999), 3),
        "max": round(max(samples_ms), 3) if samples_ms else 0.0,
    }


def _run_level(ctx, client, writer, capsule_name, *, rate, duration):
    """One open-loop level; returns the level's result dict."""
    total_ops = max(2, int(rate * duration))
    latencies: dict[str, list[float]] = {"append": [], "read": []}
    state = {"completed": 0, "errors": 0}
    done = ctx.future()
    pdus_before = client.transport.sent + client.transport.delivered
    wall_start = time.perf_counter()
    level_start = ctx.now

    def finish_one() -> None:
        state["completed"] += 1
        if state["completed"] == total_ops and not done.done:
            done.resolve(None)

    def op_process(kind: str, scheduled_start: float, seqno: int):
        try:
            if kind == "append":
                yield from writer.append(b"loadgen-%d" % seqno)
            else:
                yield from client.read(capsule_name, seqno)
        except Exception:  # noqa: BLE001 — tallied, not raised mid-level
            state["errors"] += 1
        else:
            latencies[kind].append((ctx.now - scheduled_start) * 1000.0)
        finish_one()

    # Reads cycle over records seeded before the level started.
    for k in range(total_ops):
        scheduled_start = level_start + k / rate
        kind = "read" if k % 2 else "append"
        seqno = (k % 16) + 1 if kind == "read" else k
        ctx.schedule(
            max(0.0, scheduled_start - ctx.now),
            ctx.spawn,
            op_process(kind, scheduled_start, seqno),
            f"op{k}",
        )

    def level_driver():
        yield ctx.timeout(done, duration + 30.0, f"loadgen level {rate}/s")

    ctx.run_process(level_driver(), f"level-{rate}")
    wall_seconds = time.perf_counter() - wall_start
    pdus = client.transport.sent + client.transport.delivered - pdus_before
    return {
        "target_rate": rate,
        "offered_ops": total_ops,
        "completed_ops": state["completed"],
        "errors": state["errors"],
        "duration_s": round(wall_seconds, 3),
        "append_ms": _latency_summary(latencies["append"]),
        "read_ms": _latency_summary(latencies["read"]),
        "pdus_per_sec": round(pdus / wall_seconds, 1) if wall_seconds else 0.0,
        "backpressure": client.transport.backpressure,
    }


def run(
    quick: bool = False,
    note=lambda message: None,
    *,
    processes: int = 3,
    rates: tuple = DEFAULT_RATES,
    duration: float = 2.0,
    rendezvous: str | None = None,
) -> dict:
    """Boot a fleet, drive every load level, and return the
    BENCH_transport.json document (dict).  *quick* changes nothing —
    the default levels are already CI-sized.  A *rendezvous* directory
    the caller supplies is left alone; one created here is removed."""
    import shutil
    import tempfile

    from repro.client import GdpClient, OwnerConsole
    from repro.crypto import SigningKey
    from repro.fleet import FleetLauncher, FleetSpec
    from repro.naming.names import GdpName
    from repro.runtime.context import AsyncioContext
    from repro.runtime.socketnet import SocketNetwork

    workdir = rendezvous or tempfile.mkdtemp(prefix="gdp_loadgen_")
    spec = FleetSpec(processes, workdir)
    launcher = FleetLauncher(spec)
    note(f"booting {processes}-process fleet")
    try:
        launcher.start()
        ports = launcher.wait_ready()
        ctx = AsyncioContext()
        net = SocketNetwork(ctx, seed=7)
        client = GdpClient(net, "loadgen_client")
        channel = ctx.loop.run_until_complete(
            client.transport.dial(spec.host, ports[0])
        )
        client.attach_channel(channel, GdpName(channel.remote_name_raw))

        owner_key = SigningKey.from_seed(b"loadgen-owner")
        writer_key = SigningKey.from_seed(b"loadgen-writer")
        console = OwnerConsole(client, owner_key)
        replicas = [spec.server_metadata(i) for i in range(min(2, processes))]

        def setup():
            yield client.advertise()
            metadata = console.design_capsule(
                writer_key.public, pointer_strategy="chain"
            )
            yield from console.place_capsule(metadata, replicas)
            yield 0.5
            writer = client.open_writer(metadata, writer_key)
            # Seed the records the read side cycles over.
            yield from writer.append_stream(
                [b"seed-%d" % i for i in range(16)]
            )
            return metadata, writer

        metadata, writer = ctx.run_process(setup(), "loadgen-setup")

        levels = []
        for rate in rates:
            note(f"level: {rate} ops/s open-loop for {duration}s")
            levels.append(
                _run_level(
                    ctx,
                    client,
                    writer,
                    metadata.name,
                    rate=rate,
                    duration=duration,
                )
            )
        summaries = launcher.stop()
    finally:
        if launcher.alive():
            launcher.stop()
        if not rendezvous:
            shutil.rmtree(workdir, ignore_errors=True)

    top = levels[-1]
    return {
        "schema": "gdp-bench-transport/1",
        "fleet": {
            "processes": processes,
            "transport": "asyncio-tcp",
            "replicas": len(replicas),
        },
        "levels": levels,
        "drain_ms": [s.get("drain_ms") for s in summaries],
        "gated": {
            "pdus_per_sec": top["pdus_per_sec"],
            "append_p99_ms": top["append_ms"]["p99"],
            "read_p99_ms": top["read_ms"]["p99"],
        },
    }


def table(doc: dict) -> list:
    """One row per load level, then the fleet's drain times."""
    def ms(summary: dict) -> str:
        return "/".join(f"{summary[q]:.2f}" for q in ("p50", "p99", "p999"))

    drains = [d for d in doc["drain_ms"] if d is not None]
    return [
        (
            ("rate", "append p50/p99/p999 ms", "read p50/p99/p999 ms",
             "PDU/s", "err"),
            [
                (f"{level['target_rate']}/s", ms(level["append_ms"]),
                 ms(level["read_ms"]), f"{level['pdus_per_sec']:,.0f}",
                 level["errors"])
                for level in doc["levels"]
            ],
        ),
        *(
            [f"fleet drain: {len(drains)} processes, max {max(drains):.1f} ms"]
            if drains else []
        ),
    ]
