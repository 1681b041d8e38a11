"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``version``     print the library version
``selfcheck``   run a miniature end-to-end scenario (place a capsule on
                a two-domain GDP, append, verified read, tamper-detect)
                and report PASS/FAIL — the 30-second smoke test for a
                fresh install
``stats``       run the same scenario with the metrics/trace plane on
                and print the per-node counter table (``--trace N``
                also dumps the first N deterministic trace events)
``simtest``     run seeded chaos episodes against the invariant oracles
                (``--seed N --episodes K``); every failure prints a
                one-line repro command, ``--shrink`` minimizes the
                fault schedule of each failing episode
``bench``       run a per-layer benchmark suite from the ``repro.bench``
                registry (``--suite crypto`` by default; ``--suite all``
                runs every in-process suite in turn); ``--json PATH``
                writes the BENCH_<suite>.json document, ``--check
                BASELINE`` exits non-zero when a gated row fails (the
                CI perf gate; with ``all`` both name a directory)
``serve``       boot a real multi-process fleet over TCP
                (``--fleet N`` shared-nothing processes, each one
                router + one DataCapsule-server); Ctrl-C drains
                gracefully and prints per-process shutdown summaries
``loadgen``     drive a fleet with an open-loop workload and report
                p50/p99/p999 append/read latency plus sustained PDU/s
                per level; ``--json``/``--check`` mirror ``bench``
                (the transport CI perf gate)
"""

from __future__ import annotations

import argparse
import sys


def cmd_version(_args: argparse.Namespace) -> int:
    """The ``version`` command."""
    import repro

    print(f"repro {repro.__version__} — Global Data Plane reproduction "
          "(Mor et al., ICDCS 2019)")
    return 0


def _build_selfcheck_world():
    """The shared two-domain smoke-scenario world: returns
    ``(net, checks, scenario)`` where *scenario* is a generator function
    ready for ``net.sim.run_process`` and *checks* fills with
    ``(name, passed)`` tuples as it runs."""
    import random

    from repro.adversary import StorageTamperer
    from repro.client import GdpClient, OwnerConsole
    from repro.crypto import SigningKey
    from repro.errors import GdpError
    from repro.routing import GdpRouter, RoutingDomain
    from repro.server import DataCapsuleServer
    from repro.sim import GBPS, SimNetwork

    net = SimNetwork(seed=123)
    clock = lambda: net.sim.now  # noqa: E731
    root = RoutingDomain("global", clock=clock)
    edge = RoutingDomain("global.edge", root)
    r_root = GdpRouter(net, "r_root", root)
    r_edge = GdpRouter(net, "r_edge", edge)
    net.connect(r_edge, r_root, latency=0.02, bandwidth=GBPS)
    edge.attach_to_parent(r_edge, r_root)
    server_a = DataCapsuleServer(net, "server_a")
    server_a.attach(r_root)
    server_b = DataCapsuleServer(net, "server_b")
    server_b.attach(r_edge)
    client = GdpClient(net, "client")
    client.attach(r_edge)
    reader = GdpClient(net, "reader")
    reader.attach(r_root)
    key_rng = random.Random(123)  # seeded keys keep the run reproducible
    owner = SigningKey.generate(key_rng)
    writer_key = SigningKey.generate(key_rng)
    console = OwnerConsole(client, owner)
    checks: list[tuple[str, bool]] = []

    def scenario():
        for endpoint in (server_a, server_b, client, reader):
            yield endpoint.advertise()
        metadata = console.design_capsule(
            writer_key.public, pointer_strategy="skiplist"
        )
        yield from console.place_capsule(
            metadata, [server_a.metadata, server_b.metadata]
        )
        yield 0.5
        checks.append(("place capsule on 2 domains", True))
        writer = client.open_writer(metadata, writer_key)
        yield from writer.append_stream(
            [b"record-%d" % i for i in range(5)]
        )
        receipt = yield from writer.append(b"durable", acks="all")
        checks.append(("append (incl. acks=all)", receipt.acks == 2))
        yield 1.0
        got = yield from reader.read(metadata.name, 3)
        checks.append(
            ("cross-domain verified read", got.record.payload == b"record-2")
        )
        result = yield from reader.read_range(metadata.name, 1, 6)
        checks.append(("verified range read", len(result.records) == 6))
        StorageTamperer(server_a).corrupt_record(metadata.name, 2)
        fresh = GdpClient(net, "fresh")
        fresh.attach(r_root)
        yield fresh.advertise()
        try:
            yield from fresh.read(metadata.name, 2)
            checks.append(("tamper detection", False))
        except GdpError:
            checks.append(("tamper detection", True))
        return True

    return net, checks, scenario


def cmd_selfcheck(_args: argparse.Namespace) -> int:
    """The ``selfcheck`` command: end-to-end smoke scenario."""
    net, checks, scenario = _build_selfcheck_world()
    try:
        net.sim.run_process(scenario())
    except Exception as exc:  # noqa: BLE001 — selfcheck reports, not crashes
        print(f"selfcheck CRASHED: {type(exc).__name__}: {exc}")
        return 2
    ok = all(passed for _, passed in checks)
    for name, passed in checks:
        print(f"  [{'PASS' if passed else 'FAIL'}] {name}")
    print("selfcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """The ``stats`` command: selfcheck scenario + metrics table."""
    net, _checks, scenario = _build_selfcheck_world()
    net.enable_node_metrics()
    tracer = net.enable_tracing()
    try:
        net.sim.run_process(scenario())
    except Exception as exc:  # noqa: BLE001 — reported, not crashed
        print(f"stats scenario CRASHED: {type(exc).__name__}: {exc}")
        return 2
    print(f"{'scope':<22} {'counter':<26} {'value':>12}")
    print("-" * 62)
    for scope, counters in net.metrics.snapshot().items():
        for name, value in counters.items():
            if isinstance(value, dict):  # histogram summary
                value = value.get("count", 0)
            if value:
                print(f"{scope:<22} {name:<26} {value:>12}")
    print(f"\ntrace events recorded: {len(tracer)} "
          f"(sim time {net.sim.now:.3f}s)")
    if args.trace:
        print()
        for line in tracer.lines()[: args.trace]:
            print(line)
    return 0


def cmd_simtest(args: argparse.Namespace) -> int:
    """The ``simtest`` command: seeded chaos episodes + oracles."""
    from repro.simtest import run_episode, shrink_episode

    failures = 0
    for i in range(args.episodes):
        seed = args.seed + i
        result = run_episode(seed, profile=args.profile)
        if result.ok:
            print(
                f"episode seed={seed}: PASS "
                f"({len(result.plan.faults)} faults, "
                f"{len(result.op_log)} ops, "
                f"trace sha256={result.trace_sha256[:16]})"
            )
            continue
        failures += 1
        print(result.report())
        if args.shrink:
            import functools

            shrunk = shrink_episode(
                seed,
                run=functools.partial(run_episode, profile=args.profile),
            )
            for line in shrunk.describe():
                print(line)
    print(
        f"simtest: {args.episodes - failures}/{args.episodes} "
        f"episodes passed"
    )
    return 0 if failures == 0 else 1


def _note(message: str) -> None:
    print(f"  ... {message}", flush=True)


def _run_and_gate(suite, run, json_path, check_path) -> int:
    """The one run -> print -> ``--json`` -> ``--check`` tail behind
    ``bench`` and ``loadgen``: 0 = ok, 1 = gate failed, 2 = baseline
    unreadable."""
    from repro.bench import gate

    doc = run()
    print()
    print(gate.format_table(suite.table(doc)))
    if json_path:
        gate.dump(doc, json_path)
        print(f"\nwrote {json_path}")
    if check_path:
        try:
            baseline = gate.load(check_path)
        except (OSError, ValueError) as exc:
            print(f"\nperf gate: cannot read baseline {check_path}: {exc}")
            return 2
        failures = gate.check(doc, baseline, suite.gates)
        if failures:
            print(f"\nperf gate FAILED vs {check_path}:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"\nperf gate PASS vs {check_path}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """The ``bench`` command: run, print and gate one registered suite,
    or (``--suite all``) every in-process suite in turn with ``--json``
    / ``--check`` naming the directory of ``BENCH_<suite>.json`` files."""
    import functools
    import os

    from repro.bench import IN_PROCESS, SUITES

    everything = args.suite == "all"
    if everything and args.json:
        os.makedirs(args.json, exist_ok=True)
    worst = 0
    for name in IN_PROCESS if everything else (args.suite,):
        suite = SUITES[name]
        json_path, check_path = args.json, args.check
        if everything:
            print(f"\n== {name} ==")
            current = suite.baseline.replace(".json", ".current.json")
            json_path = json_path and os.path.join(json_path, current)
            check_path = check_path and os.path.join(check_path, suite.baseline)
        run = functools.partial(suite.run, args.quick, _note)
        worst = max(worst, _run_and_gate(suite, run, json_path, check_path))
    return worst


def cmd_serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: run a real socket-mode fleet until
    interrupted, then drain gracefully."""
    import signal
    import tempfile
    import time

    from repro.fleet import FleetLauncher, FleetSpec

    # SIGTERM (systemd stop, docker stop, a supervisor) must drain the
    # fleet exactly like Ctrl-C; without this the supervisor dies and
    # orphans its children mid-write.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)

    rendezvous = args.rendezvous or tempfile.mkdtemp(prefix="gdp_fleet_")
    spec = FleetSpec(
        args.fleet,
        rendezvous,
        host=args.host,
        storage_root=args.storage,
        fsync=args.fsync,
    )
    launcher = FleetLauncher(spec)
    launcher.start()
    try:
        try:
            ports = launcher.wait_ready()
        except TimeoutError as exc:
            print(f"fleet failed to come up: {exc}")
            return 2
        print(f"fleet up: {args.fleet} processes on {args.host}")
        for index, port in enumerate(ports):
            print(
                f"  [{index}] router {spec.router_node_id(index)} "
                f"port {port}  server {spec.server_name(index).human()}"
            )
        print(f"rendezvous: {rendezvous}")
        print("Ctrl-C to drain and stop")
        while launcher.alive():
            time.sleep(0.5)
        print("fleet exited unexpectedly")
        return 1
    except KeyboardInterrupt:
        print("\ndraining fleet ...")
        summaries = launcher.stop()
        for summary in summaries:
            drain_ms = summary.get("drain_ms")
            drained = (
                f"{drain_ms:.1f} ms" if drain_ms is not None else "no drain"
            )
            print(
                f"  [{summary.get('index')}] drain {drained}, "
                f"appends {summary.get('appends', '?')}, "
                f"replications {summary.get('replications', '?')}, "
                f"reads {summary.get('reads', '?')}"
            )
        return 0
    finally:
        # Whatever path exits (startup timeout, a crash, an interrupt
        # mid-wait_ready), never leave the children orphaned — the
        # multiprocessing atexit join would hang the supervisor forever.
        if launcher.alive():
            launcher.stop()


def cmd_loadgen(args: argparse.Namespace) -> int:
    """The ``loadgen`` command: the transport suite — open-loop load
    against a real fleet — with its own fleet/level flags."""
    import functools

    from repro.bench import SUITES, transport

    rates = tuple(int(r) for r in args.rates.split(",")) if args.rates \
        else transport.DEFAULT_RATES
    run = functools.partial(
        transport.run,
        note=_note,
        processes=args.processes,
        rates=rates,
        duration=args.duration,
    )
    return _run_and_gate(SUITES["transport"], run, args.json, args.check)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Global Data Plane / DataCapsules reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("version", help="print the version")
    sub.add_parser("selfcheck", help="run the end-to-end smoke scenario")
    stats = sub.add_parser(
        "stats", help="run the smoke scenario and print per-node metrics"
    )
    stats.add_argument(
        "--trace",
        type=int,
        default=0,
        metavar="N",
        help="also print the first N deterministic trace events",
    )
    simtest = sub.add_parser(
        "simtest",
        help="run seeded chaos episodes against the invariant oracles",
    )
    simtest.add_argument(
        "--seed", type=int, default=1, metavar="N",
        help="first episode seed (default 1)",
    )
    simtest.add_argument(
        "--episodes", type=int, default=1, metavar="K",
        help="how many consecutive seeds to run (default 1)",
    )
    simtest.add_argument(
        "--shrink", action="store_true",
        help="greedily minimize the fault schedule of failing episodes",
    )
    simtest.add_argument(
        "--profile",
        choices=("default", "crash_bias", "commit", "dht_churn"),
        default="default",
        help="episode variant: crash_bias biases faults toward crashes, "
        "commit attaches a sharded commit plane with racing CAS "
        "submitters, dht_churn crashes Kademlia overlay nodes under the "
        "DHT-backed global tier (default: default)",
    )
    from repro.bench import SUITES

    bench_cmd = sub.add_parser(
        "bench", help="run a per-layer benchmark suite"
    )
    bench_cmd.add_argument(
        "--suite",
        choices=(*SUITES, "all"),
        default="crypto",
        help="which benchmark suite to run (default: crypto); all = "
        "every in-process suite in turn",
    )
    bench_cmd.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the BENCH_<suite>.json document to PATH (all: "
        "BENCH_<suite>.current.json files into directory PATH)",
    )
    bench_cmd.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="exit non-zero when a gated row fails vs BASELINE (all: "
        "the directory holding the BENCH_<suite>.json files)",
    )
    bench_cmd.add_argument(
        "--quick", action="store_true",
        help="smaller run: storage builds 200k records instead of "
        "10M, routing fills only the 10k level and the 32-node ring, "
        "commit runs only the gated cells, paper skips the 115 MB model "
        "and the deeper / larger ablation cells",
    )
    serve = sub.add_parser(
        "serve", help="boot a real multi-process fleet over TCP"
    )
    serve.add_argument(
        "--fleet", type=int, default=3, metavar="N",
        help="number of shared-nothing processes (default 3)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    serve.add_argument(
        "--rendezvous", default=None, metavar="DIR",
        help="port/ready-file directory (default: a fresh temp dir)",
    )
    serve.add_argument(
        "--storage", default=None, metavar="DIR",
        help="durable storage root (default: in-memory storage)",
    )
    serve.add_argument(
        "--fsync", action="store_true",
        help="durable appends: fsync once 64 KiB is pending "
        "(batch:65536) instead of only at drain",
    )
    loadgen_cmd = sub.add_parser(
        "loadgen", help="open-loop load against a real fleet"
    )
    loadgen_cmd.add_argument(
        "--processes", type=int, default=3, metavar="N",
        help="fleet size to spawn (default 3)",
    )
    loadgen_cmd.add_argument(
        "--rates", default=None, metavar="R1,R2,...",
        help="offered op rates per level (default 25,50,100)",
    )
    loadgen_cmd.add_argument(
        "--duration", type=float, default=2.0, metavar="S",
        help="seconds per level (default 2)",
    )
    loadgen_cmd.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the BENCH_transport.json document to PATH",
    )
    loadgen_cmd.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="exit non-zero on perf-gate failure vs BASELINE",
    )
    args = parser.parse_args(argv)
    commands = {
        "version": cmd_version,
        "selfcheck": cmd_selfcheck,
        "stats": cmd_stats,
        "simtest": cmd_simtest,
        "bench": cmd_bench,
        "serve": cmd_serve,
        "loadgen": cmd_loadgen,
    }
    if args.command is None:
        parser.print_help()
        return 0
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
