"""The benchmark's one command.

    python3 perf/run.py --workload W --seed S [--seconds N] [--trace 0|1]
    python3 perf/run.py --seed S [--json OUT]        # all five, in turn

One workload runs alone in this (fresh) process; without ``--workload``
each of the five is launched in its own child process, one after
another.  Every metric is printed as ``workload/metric value unit`` and
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perf import harness  # noqa: E402

WORKLOAD_NAMES = (
    "append_single",
    "read_verified",
    "bulk_transfer",
    "commit_contended",
    "name_churn",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_s": "1/s",
    "p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mib": "MiB",
    "stored_bytes_per_user_byte": "B/B",
}


def gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    spans_path: str | None = None,
) -> dict:
    """Run one workload in this process; returns the result object
    (plus ``info`` lines that are printed but not part of the JSON)."""
    from perf.workloads import WORKLOADS  # imports repro

    cls = WORKLOADS[name]
    tracer = None
    if trace:
        from perf import trace as tracing

        tracer = tracing.Tracer(keep_spans=spans_path is not None)
    # imports are timed like any set-up phase: scaled by a speed probe
    import_s = (
        (time.perf_counter() - _PROCESS_START)
        * harness.REFERENCE_PROBE_S / harness.speed_probe()
    )
    n_rounds = (2 if trace else 1) if smoke else harness.rounds_for(seconds)
    repeats = 1 if (trace or smoke) else cls.setup_repeats
    builds, rounds = [], []
    workload = None
    with harness.WorkDir(name) as work, harness.CountedFsync() as fsyncs:
        if tracer is not None:
            tracer.install()  # before any node exists, after os.fsync is swapped
        try:
            for attempt in range(repeats):
                if workload is not None:
                    workload.teardown()
                    shutil.rmtree(workload.root)
                workload = cls(seed, work.sub(f"setup{attempt}"), smoke=smoke)
                meter = harness.RoundMeter()
                meter.start()
                workload.setup(meter.tick)
                builds.append(meter.finish())
            if tracer is not None:
                tracer.remote = {id(node) for node in workload.remote_nodes()}
            warm_up = workload.run_round(harness.RoundMeter(tracer))
            gc_before = gc_collections()
            for index in range(n_rounds):
                if tracer is not None:
                    # odd rounds record spans, even rounds are the
                    # untraced baseline of tracing.overhead_ratio
                    tracer.recording = index % 2 == 1
                rounds.append(workload.run_round(harness.RoundMeter(tracer)))
        except BaseException:
            if workload is not None:
                with contextlib.suppress(Exception):
                    workload.teardown()
            raise
        gc_delta = gc_collections() - gc_before
        workload.teardown()
        unrecovered = workload.verify()
        medium = harness.storage_medium(work.path)

    attempted = warm_up.ops + sum(r.ops for r in rounds)
    failed = warm_up.failed + sum(r.failed for r in rounds) + unrecovered
    clock = cls.clock
    info = [
        f"topology: {cls.topology}; "
        f"storage_medium={medium}; clock={clock}; rounds={len(rounds)} x "
        f"{workload.round_ops} ops (+1 warm-up); set-ups={len(builds)}; "
        f"fsync calls counted, not issued: {fsyncs.calls}",
    ]
    if trace:
        metrics, checks = tracing.layer_metrics(workload, rounds, gc_delta)
        for description, passed in checks:
            info.append(f"trace self-check {'ok' if passed else 'FAILED'}: {description}")
            failed += not passed
        if spans_path is not None:
            tracer.write_spans(spans_path)
            info.append(f"{len(tracer.spans)} spans written to {spans_path}")
    else:
        metrics = {
            "setup_s": import_s + harness.median(b.wall_norm for b in builds),
            "ops_s": harness.median(r.ops_s(clock) for r in rounds),
            "p50_ms": harness.median(r.p50_ms(clock) for r in rounds),
            "cpu_ms_per_op": harness.median(r.cpu_ms_per_op() for r in rounds),
            "peak_rss_mib": harness.peak_rss_mib(),
            "stored_bytes_per_user_byte": workload.stored_bytes / workload.user_bytes,
        }
        metrics = {
            key: {"value": value, "unit": END_TO_END_UNITS[key]}
            for key, value in metrics.items()
        }
        raw_wall = harness.median(r.wall / r.ops for r in rounds) * 1e3
        raw_cpu = harness.median(r.cpu / r.ops for r in rounds) * 1e3
        speed = harness.median(r.wall_norm / r.wall for r in rounds)
        info.append(
            f"raw (not speed-normalised): wall {raw_wall:.4f} ms/op, "
            f"cpu {raw_cpu:.4f} ms/op, p50 "
            f"{harness.median(harness.median(r.latencies) for r in rounds) * 1e3:.4f} ms; "
            f"set-up {harness.median(b.wall for b in builds):.4f} s; "
            f"machine speed vs reference x{1 / speed:.3f}"
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def print_result(name: str, result: dict) -> None:
    for line in result.pop("info"):
        print(f"# {name}: {line}")
    print(f"# {name}: attempted {result['attempted']} failed {result['failed']}")
    for metric, cell in result["metrics"].items():
        print(f"{name}/{metric} {cell['value']:.6g} {cell['unit']}")
    print(json.dumps(result))


def run_all(args) -> int:
    """Launch every workload in its own process, one after another."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    if args.json:
        with open(args.json, "w") as out:
            json.dump(results, out, indent=2, sort_keys=True)
            out.write("\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=harness.RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="1 round, small counts")
    parser.add_argument("--json", metavar="OUT", help="write all results here")
    parser.add_argument("--spans", metavar="OUT", help="with --trace: dump spans here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        args.spans,
    )
    print_result(args.workload, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
