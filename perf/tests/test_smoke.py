"""``--smoke``: one small round of every workload, end to end."""

import json
import os
import subprocess
import sys
import time

import pytest

from perf import run, trace

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_RUN = os.path.join(_ROOT, "perf", "run.py")


def _run(*args):
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", _RUN, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=_ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_all_five_workloads_smoke_in_under_thirty_seconds(spec):
    started = time.perf_counter()
    for name in run.WORKLOAD_NAMES:
        lines = _run("--workload", name, "--seed", "3", "--smoke")
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        for metric in spec["end_to_end"]:
            cell = result["metrics"][metric["name"]]
            assert cell["unit"] == metric["unit"] and cell["value"] > 0
            assert any(
                line.startswith(f"{name}/{metric['name']} ") for line in lines
            )
    assert time.perf_counter() - started < 30.0
    assert not os.path.exists(os.path.join(_ROOT, ".perf_work"))


def test_traced_smoke_prints_every_per_layer_metric(spec):
    lines = _run("--workload", "append_single", "--seed", "3", "--smoke", "--trace", "1")
    result = json.loads(lines[-1])
    assert result["correct"], [line for line in lines if "self-check" in line]
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert result["metrics"]["crypto.sign.calls_per_op"]["value"] >= 2
    assert result["metrics"]["routing.router.forwards_per_op"]["value"] == 6
    assert result["metrics"]["runtime.transport.pdus_per_op"]["value"] == 10
    assert result["metrics"]["tracing.overhead_ratio"]["value"] > 0


def test_benchmark_json_names_what_the_code_reports(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(trace.LAYER_METRICS)
    assert spec["command"] == ["python3", "perf/run.py"] and spec["paths"] == ["perf"]
