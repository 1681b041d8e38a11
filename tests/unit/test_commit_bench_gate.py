"""The commit suite's gate rows: the 3x shard-scaling floor, the 30%
regression band, and quick-vs-full cell matching."""

from repro.bench import gate
from repro.bench.commit import GATES

ROW = {row.path: row for row in GATES}


def check_regression(current, baseline):
    return gate.check(current, baseline, GATES)


def cell(shards, rate):
    return {
        "shards": shards,
        "committed": 192,
        "conflicts": 0,
        "rejected": 0,
        "seconds": 1.0,
        "committed_per_sec": rate,
        "lost_updates": 0,
    }


def doc(scaling=3.2, rate1=500.0, rate4=1600.0, quick=False):
    uniform = {
        "shards_1": cell(1, rate1),
        "shards_4": cell(4, rate4),
    }
    if not quick:
        uniform["shards_8"] = cell(8, rate4 * 1.2)
    return {
        "schema": "gdp-bench-commit/1",
        "quick": quick,
        "uniform": uniform,
        "ratios": {"shard_scaling_4x": scaling},
    }


class TestGate:
    def test_identical_runs_pass(self):
        assert check_regression(doc(), doc()) == []

    def test_scaling_floor(self):
        floor = ROW["ratios.shard_scaling_4x"].floor
        failures = check_regression(doc(scaling=floor - 0.1), doc())
        assert any("acceptance floor" in f for f in failures)

    def test_scaling_ratio_regression(self):
        failures = check_regression(doc(scaling=3.0), doc(scaling=4.5))
        assert any("regressed" in f for f in failures)

    def test_missing_ratio_fails(self):
        current = doc()
        del current["ratios"]["shard_scaling_4x"]
        failures = check_regression(current, doc())
        assert any("missing" in f for f in failures)

    def test_throughput_regression_is_downward_only(self):
        # Faster than baseline: an improvement, not a regression.
        assert check_regression(doc(rate4=3200.0), doc()) == []
        failures = check_regression(doc(rate4=1000.0), doc(rate4=1600.0))
        assert any("committed_per_sec" in f for f in failures)

    def test_quick_run_gates_against_full_baseline(self):
        # Only cells present in both documents are compared: a --quick
        # run (no shards_8 cell) must gate cleanly against the full
        # committed baseline.
        assert check_regression(doc(quick=True), doc()) == []
