"""The median-of-rounds estimator and the speed normalisation."""

import pytest

from perf import harness


def test_median_of_rounds_ignores_a_disturbed_minority():
    quiet = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8]
    assert harness.median(quiet + [17.0, 25.0]) == pytest.approx(10.05)


def test_rounds_scale_with_seconds_and_never_drop_below_two():
    assert harness.rounds_for(harness.RUN_SECONDS) == harness.ROUNDS_AT_RUN_SECONDS
    assert harness.rounds_for(5) == 4
    assert harness.rounds_for(0.1) == 2


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.99) == 100
    assert harness.percentile(values, 0.5) == 51


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _meter(monkeypatch, probes):
    """A meter on a scripted clock: wall == CPU, probes as given."""
    clock = _Clock()
    monkeypatch.setattr(harness.time, "perf_counter", clock)
    monkeypatch.setattr(harness.time, "process_time", clock)
    feed = iter(probes)
    monkeypatch.setattr(harness, "speed_probe", lambda: next(feed))
    return harness.RoundMeter(), clock


def test_a_machine_at_reference_speed_is_left_alone(monkeypatch):
    ref = harness.REFERENCE_PROBE_S
    meter, clock = _meter(monkeypatch, [ref] * 3)
    meter.start()
    for _ in range(4):
        clock.now += 0.010
        meter.record(0.010)
    meter.tick()
    clock.now += 0.020
    meter.record(0.020, ok=False)
    done = meter.finish()
    assert (done.ops, done.failed) == (5, 1)
    assert done.wall == pytest.approx(0.060)
    assert done.wall_norm == pytest.approx(done.wall)
    assert done.cpu_norm == pytest.approx(done.cpu)
    assert done.p50_ms("normalised") == pytest.approx(10.0)
    assert done.ops_s("wall") == pytest.approx(5 / 0.060)


def test_a_chunk_on_a_slow_machine_is_scaled_back(monkeypatch):
    ref = harness.REFERENCE_PROBE_S
    # chunk 1 between probes (ref, ref); chunk 2 between (ref, 3 ref):
    # mean 2 ref, so its times halve
    meter, clock = _meter(monkeypatch, [ref, ref, 3 * ref])
    meter.start()
    clock.now += 0.010
    meter.record(0.010)
    meter.tick()
    clock.now += 0.040
    meter.record(0.040)
    done = meter.finish()
    assert done.wall == pytest.approx(0.050)
    assert done.wall_norm == pytest.approx(0.010 + 0.020)
    assert done.latencies_norm == pytest.approx([0.010, 0.020])
    assert done.cpu_ms_per_op() == pytest.approx(15.0)
    # the wall clock is never normalised
    assert done.p50_ms("wall") == pytest.approx(25.0)


def test_simulated_clock_reads_the_workloads_own_elapsed_time(monkeypatch):
    ref = harness.REFERENCE_PROBE_S
    meter, clock = _meter(monkeypatch, [ref, 2 * ref])
    meter.start()
    clock.now += 1.0
    for latency in (0.006, 0.007, 0.050):
        meter.record(latency)
    meter.sim_elapsed = 0.3
    done = meter.finish()
    assert done.ops_s("simulated") == pytest.approx(10.0)
    assert done.p50_ms("simulated") == pytest.approx(7.0)


def test_work_dir_is_removed_on_failure():
    with pytest.raises(RuntimeError):
        with harness.WorkDir("pytest") as work:
            path = work.sub("store0")
            open(f"{path}/segment", "w").close()
            raise RuntimeError("boom")
    import os

    assert not os.path.exists(work.path)
