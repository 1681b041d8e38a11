"""The storage suite's gate rows: the ratio floor, the 30% regression
band, and the sustained-scenario shape checks (build and replay)."""

from repro.bench import gate
from repro.bench.storage import GATES

ROW = {row.path: row for row in GATES}


def check_regression(current, baseline):
    return gate.check(current, baseline, GATES)


def doc(durable=4.0, tiered=24):
    return {
        "ratios": {"durable_append_ratio": durable},
        "sustained": {
            "records": 200_000,
            "records_per_sec": 26_000.0,
            "tiered_segments": tiered,
            "replay": {
                "seconds": 2.0,
                "records_per_sec": 100_000.0,
            },
        },
    }


class TestGate:
    def test_identical_runs_pass(self):
        assert check_regression(doc(), doc()) == []

    def test_durable_ratio_floor(self):
        floor = ROW["ratios.durable_append_ratio"].floor
        failures = check_regression(doc(durable=floor - 0.1), doc())
        assert any("acceptance floor" in f for f in failures)

    def test_regression_band_is_downward_only(self):
        # 2x the baseline ratio is an improvement, never a failure.
        assert check_regression(doc(durable=8.0), doc(durable=4.0)) == []
        failures = check_regression(doc(durable=2.0), doc(durable=4.0))
        assert any("regressed" in f for f in failures)

    def test_within_band_passes(self):
        # -25% is inside the 30% tolerance.
        assert check_regression(doc(durable=3.0), doc(durable=4.0)) == []

    def test_missing_ratio_fails(self):
        current = doc()
        del current["ratios"]["durable_append_ratio"]
        failures = check_regression(current, doc())
        assert any("missing" in f for f in failures)

    def test_nothing_tiered_fails(self):
        failures = check_regression(doc(tiered=0), doc())
        assert any("nothing tiered" in f for f in failures)

    def test_missing_replay_row_fails(self):
        current = doc()
        del current["sustained"]["replay"]
        failures = check_regression(current, doc())
        assert any("replay.records_per_sec" in f for f in failures)

    def test_quick_run_compares_ratios_not_absolutes(self):
        # The committed baseline is a full 10M-record run; a --quick CI
        # run has far smaller sustained absolutes and must still pass.
        baseline = doc()
        baseline["sustained"]["records"] = 10_000_000
        baseline["sustained"]["records_per_sec"] = 30_000.0
        assert check_regression(doc(), baseline) == []
