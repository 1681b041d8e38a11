"""The A/A comparison rule."""

from perf import aa

SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    ]
}


def _cells(setup, ops):
    return {"w": {"setup_s": setup, "ops_s": ops}}


def test_equal_sets_agree():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 100.3, 99.9]
    lines, agree = aa.compare(_cells([[1.0] * 10, [1.0] * 10], [steady, steady]), SPEC)
    assert agree and all(line.endswith("ok") for line in lines)


def test_a_worse_second_median_disagrees_in_the_metrics_own_direction():
    first = [100.0] * 10
    slower = [85.0] * 10          # ops_s: higher is better, so this is worse
    faster = [115.0] * 10
    _, agree = aa.compare(_cells([[1.0] * 10] * 2, [first, slower]), SPEC)
    assert not agree
    _, agree = aa.compare(_cells([[1.0] * 10] * 2, [first, faster]), SPEC)
    assert agree


def test_a_wide_spread_disagrees_except_for_setup():
    wide = [80.0, 85.0, 90.0, 95.0, 100.0, 100.0, 105.0, 110.0, 115.0, 120.0]
    _, agree = aa.compare(_cells([[1.0] * 10] * 2, [wide, wide]), SPEC)
    assert not agree
    wide_setup = [v / 100.0 for v in wide]
    steady = [100.0] * 10
    _, agree = aa.compare(_cells([wide_setup, wide_setup], [steady, steady]), SPEC)
    assert agree
