"""Crypto hot-path microbenchmarks: the acceleration-layer speedups.

Measures sign, verify (cold ladder / warm memo), capsule append, and
full-history verification with the accelerated paths against the naive
double-and-add reference, using the paired-trial harness from
:mod:`repro.bench.crypto` (accel/naive trials interleave so machine
noise cancels out of the ratios).  The same suite backs ``repro bench``
and the CI perf gate — its ``GATES`` rows hold the acceptance floors
asserted here; this file is the human-readable lens on it.
"""

from __future__ import annotations

import pytest

from repro.bench import crypto


@pytest.fixture(scope="module")
def results():
    return crypto.run()


def test_crypto_hotpath_table(benchmark, report, results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report.line("Crypto hot-path op/s — accelerated vs naive reference")
    report.line("(fixed-base combs + Shamir verify + signature/digest memo)")
    for headers, rows in crypto.table(results):
        report.table(headers, rows)
    benchmark.extra_info.update(
        {f"speedup_{k}": v for k, v in results["speedup"].items()}
    )


@pytest.mark.parametrize("row", crypto.GATES, ids=lambda row: row.path)
def test_speedup_floor(results, row):
    speedup = results["speedup"][row.path.removeprefix("speedup.")]
    assert speedup >= row.floor, (
        f"{row.path} must be >={row.floor}x the naive ladder "
        f"(got {speedup:.2f}x)"
    )


def test_warm_verify_beats_cold(results):
    # The memo hit path must be at least an order of magnitude above a
    # real ladder — it is a dict lookup.
    assert (
        results["ops_per_sec"]["verify_warm"]
        >= 10 * results["ops_per_sec"]["verify_cold"]
    )
