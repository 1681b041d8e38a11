"""The routing suite's gate rows: memory and latency ceilings, the DHT
hop bound and churn survival, and the level-matched 30% regression
band."""

from repro.bench import gate
from repro.bench.routing import GATES

ROW = {row.path: row for row in GATES}


def check_regression(current, baseline):
    return gate.check(current, baseline, GATES)


def level(n, fib_bytes=80.0, gl_p99=0.03):
    return {
        "names": n,
        "fib": {
            "bytes_per_entry": fib_bytes,
            "warm_get": {"samples": 100, "p50_ms": 0.001, "p99_ms": 0.01},
        },
        "glookup": {
            "bytes_per_entry": 60.0,
            "warm_lookup": {
                "samples": 100, "p50_ms": 0.01, "p99_ms": gl_p99,
            },
        },
    }


def doc(fib_bytes=80.0, p99=0.03, hops_ok=True, churn_ok=True):
    return {
        "levels": [level(10_000), level(1_000_000, fib_bytes, p99)],
        "dht": [
            {"nodes": 32, "max_hops": 3, "hop_bound": 7},
        ],
        "gates": {
            "fib_bytes_per_entry": fib_bytes,
            "warm_resolution_p99_ms": p99,
            "dht_hops_within_bound": hops_ok,
            "dht_churn_survival": churn_ok,
        },
        "trace_overhead": {"disabled_vs_plain": 0.98, "full_vs_plain": 2.1},
    }


class TestGate:
    def test_identical_runs_pass(self):
        assert check_regression(doc(), doc()) == []

    def test_fib_memory_ceiling(self):
        limit = ROW["gates.fib_bytes_per_entry"].ceiling
        failures = check_regression(doc(fib_bytes=limit + 50), doc())
        assert any("fib_bytes_per_entry" in f for f in failures)

    def test_warm_p99_ceiling(self):
        limit = ROW["gates.warm_resolution_p99_ms"].ceiling
        failures = check_regression(doc(p99=limit * 2), doc())
        assert any("warm_resolution_p99_ms" in f for f in failures)

    def test_dht_hop_bound(self):
        failures = check_regression(doc(hops_ok=False), doc())
        assert any("dht_hops_within_bound" in f for f in failures)

    def test_dht_churn_survival_gate(self):
        failures = check_regression(doc(churn_ok=False), doc())
        assert any("dht_churn_survival" in f for f in failures)

    def test_regression_band_per_level(self):
        failures = check_regression(
            doc(fib_bytes=150.0), doc(fib_bytes=80.0)
        )
        assert any(
            "levels[1000000].fib.bytes_per_entry" in f for f in failures
        )

    def test_improvement_never_fails(self):
        assert check_regression(doc(fib_bytes=40.0), doc(fib_bytes=80.0)) == []

    def test_within_band_passes(self):
        assert check_regression(doc(fib_bytes=95.0), doc(fib_bytes=80.0)) == []

    def test_quick_run_compares_only_matching_levels(self):
        """A --quick run (10k only) against a full baseline must judge
        the 10k level and ignore the baseline's 1M level."""
        quick = doc()
        quick["levels"] = [level(10_000)]
        assert check_regression(quick, doc()) == []
        quick["levels"] = [level(10_000, fib_bytes=150.0)]
        failures = check_regression(quick, doc())
        assert any(
            "levels[10000].fib.bytes_per_entry" in f for f in failures
        )

    def test_latency_noise_floor(self):
        """Microsecond-scale p99 jitter is exempt from the regression
        band; above the floor the band applies, and the absolute 1 ms
        ceiling applies regardless."""
        # 0.06ms vs 0.03ms baseline: 2x, but under the noise floor.
        assert check_regression(doc(p99=0.06), doc(p99=0.03)) == []
        # 0.9ms vs 0.4ms: above the floor, band fires (ceiling doesn't).
        failures = check_regression(doc(p99=0.9), doc(p99=0.4))
        assert any("warm_lookup.p99_ms" in f for f in failures)

    def test_missing_gates_fail(self):
        current = doc()
        del current["gates"]["warm_resolution_p99_ms"]
        failures = check_regression(current, doc())
        assert any("missing" in f for f in failures)
