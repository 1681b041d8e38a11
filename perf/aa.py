"""A/A check: do two sets of runs of the same code agree?

    python3 perf/aa.py --sets 2 --runs 10 [--workload W ...] [--seconds N]

Runs the benchmark ``runs`` times per set on every workload, each run
with another seed, the sets interleaved so that slow drift of the
machine hits both alike.  Per ``workload/metric`` it prints each set's
median and quartiles, the spread (inter-quartile distance as a share of
the median), the relative difference of the medians and the bound from
``BENCHMARK.json``.  A cell disagrees — and the exit code is 1 — when a
spread exceeds its bound (``setup_s`` excepted, as in the acceptance
rule) or a later set's median is worse than the first's by more than
the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)


def load_benchmark() -> dict:
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a fresh process; returns its
    result object."""
    done = subprocess.run(
        [
            sys.executable, os.path.join(_HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed ops")
    return result


def quartiles(values) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(cells: dict, spec: dict) -> tuple[list[str], bool]:
    """Table lines for ``cells[workload][metric][set] -> values`` and
    whether every cell agrees."""
    lines, agree = [], True
    for workload, metrics in cells.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            sets = [quartiles(values) for values in metrics[name]]
            first = sets[0][1]
            for index, (q1, med, q3) in enumerate(sets):
                spread = (q3 - q1) / med
                worse = sign * (med - first) / first
                ok = worse <= bound and (name == "setup_s" or spread <= bound)
                agree = agree and ok
                lines.append(
                    f"{workload}/{name} set{index} median {med:.6g} "
                    f"[{q1:.6g}, {q3:.6g}] {metric['unit']} spread {spread:.4f} "
                    f"worse-than-set0 {worse:+.4f} bound {bound} "
                    f"{'ok' if ok else 'DISAGREE'}"
                )
    return lines, agree


def main(argv=None) -> int:
    spec = load_benchmark()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1000, help="first seed")
    args = parser.parse_args(argv)
    workloads = args.workload or names
    cells = {
        w: {m["name"]: [[] for _ in range(args.sets)] for m in spec["end_to_end"]}
        for w in workloads
    }
    seed = args.seed
    for run in range(args.runs):
        for index in range(args.sets):
            for workload in workloads:
                result = run_once(workload, seed, args.seconds)
                for name, cell in result["metrics"].items():
                    cells[workload][name][index].append(cell["value"])
            seed += 1
        print(f"# run {run + 1}/{args.runs} of {args.sets} sets done", flush=True)
    lines, agree = compare(cells, spec)
    print("\n".join(lines))
    print("A/A: every cell agrees" if agree else "A/A: DISAGREEMENT")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
