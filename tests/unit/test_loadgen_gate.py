"""The transport suite's gate rows: floors, ceilings, directional 30%
regression, and the absolute latency slack that keeps small-base jitter
from flaking CI."""

from repro.bench import gate
from repro.bench.transport import GATES

ROW = {row.path: row for row in GATES}


def check_regression(current, baseline):
    return gate.check(current, baseline, GATES)


def doc(pdus=200.0, append_p99=50.0, read_p99=50.0):
    return {
        "gated": {
            "pdus_per_sec": pdus,
            "append_p99_ms": append_p99,
            "read_p99_ms": read_p99,
        }
    }


class TestGate:
    def test_identical_runs_pass(self):
        assert check_regression(doc(), doc()) == []

    def test_throughput_floor(self):
        floor = ROW["gated.pdus_per_sec"].floor
        failures = check_regression(doc(pdus=floor - 1), doc())
        assert any("acceptance floor" in f for f in failures)

    def test_latency_ceiling(self):
        ceiling = ROW["gated.append_p99_ms"].ceiling
        failures = check_regression(doc(append_p99=ceiling + 1), doc())
        assert any("acceptance ceiling" in f for f in failures)

    def test_throughput_regression_is_downward_only(self):
        # 2x faster than baseline: an improvement, not a regression.
        assert check_regression(doc(pdus=400.0), doc(pdus=200.0)) == []
        failures = check_regression(doc(pdus=130.0), doc(pdus=200.0))
        assert any("regressed" in f for f in failures)

    def test_latency_regression_is_upward_only(self):
        assert check_regression(doc(append_p99=20.0), doc()) == []

    def test_small_base_jitter_absorbed_by_slack(self):
        # 50ms -> 110ms is +120% relative but only +60ms absolute:
        # scheduler jitter near saturation, not a regression.
        assert check_regression(doc(append_p99=110.0), doc()) == []

    def test_large_latency_regression_still_fails(self):
        # +150ms and +300% clears both the relative and absolute bars.
        failures = check_regression(doc(read_p99=200.0), doc())
        assert any("read_p99_ms" in f and "regressed" in f
                   for f in failures)

    def test_missing_gated_metric_fails(self):
        current = doc()
        del current["gated"]["read_p99_ms"]
        failures = check_regression(current, doc())
        assert any("missing" in f for f in failures)
