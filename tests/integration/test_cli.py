"""The CLI: selfcheck, stats, version, simtest."""

import contextlib

from repro.cli import main


class TestCli:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert "repro 1.0.0" in capsys.readouterr().out

    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "selfcheck: PASS" in out
        assert "[FAIL]" not in out

    def test_stats_prints_metrics_table(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "router.forwarded" in out
        assert "server.appends" in out
        assert "net.bytes" in out
        assert "trace events recorded:" in out

    def test_stats_trace_dumps_events(self, capsys):
        assert main(["stats", "--trace", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("event=pdu_") == 3
        assert "seq=1" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "selfcheck" in capsys.readouterr().out


@contextlib.contextmanager
def always_failing_oracle():
    """Temporarily register an oracle that fails every episode — the
    cheap deterministic way to exercise the CLI's failure paths."""
    from repro.simtest import ORACLES, Violation

    def tripwire(world):
        return [Violation("zz_tripwire", "episode", "synthetic failure")]

    ORACLES["zz_tripwire"] = tripwire
    try:
        yield
    finally:
        ORACLES.pop("zz_tripwire", None)


class TestSimtestCommand:
    def test_single_episode_passes(self, capsys):
        assert main(["simtest", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "episode seed=3: PASS" in out
        assert "simtest: 1/1 episodes passed" in out

    def test_episodes_sweep_consecutive_seeds(self, capsys):
        assert main(["simtest", "--seed", "3", "--episodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "episode seed=3: PASS" in out
        assert "episode seed=4: PASS" in out
        assert "simtest: 2/2 episodes passed" in out

    def test_failing_seed_prints_repro_line_that_round_trips(self, capsys):
        with always_failing_oracle():
            assert main(["simtest", "--seed", "3"]) == 1
            first = capsys.readouterr().out
            assert "episode seed=3: FAIL" in first
            assert "violation: zz_tripwire: episode: synthetic failure" in first
            repro_lines = [
                line.strip() for line in first.splitlines()
                if line.strip().startswith("repro: ")
            ]
            assert repro_lines == ["repro: repro simtest --seed 3"]
            # Round-trip: run exactly what the repro line says and get a
            # byte-identical failure report.
            argv = repro_lines[0].removeprefix("repro: repro ").split()
            assert main(argv) == 1
            second = capsys.readouterr().out
            assert second == first

    def test_shrink_flag_minimizes_failing_episode(self, capsys):
        with always_failing_oracle():
            assert main(["simtest", "--seed", "3", "--shrink"]) == 1
            out = capsys.readouterr().out
        # The tripwire fails regardless of faults, so the greedy pass
        # strips the schedule to nothing.
        assert "shrink: 2 -> 0 faults (2 removed)" in out
        assert "simtest: 0/1 episodes passed" in out


class TestBenchCommand:
    def test_suite_all_creates_its_json_directory(self, tmp_path, monkeypatch):
        from repro import bench
        from repro.bench import gate

        fake = bench.Suite(
            run=lambda quick, note: {"score": 10.0},
            gates=(gate.Gate("score", "higher", floor=1.0),),
            table=lambda doc: [f"score {doc['score']}"],
            baseline="BENCH_fake.json",
        )
        monkeypatch.setitem(bench.SUITES, "fake", fake)
        monkeypatch.setattr(bench, "IN_PROCESS", ("fake", "fake"))
        out = tmp_path / "not" / "made"
        assert main(["bench", "--suite", "all", "--json", str(out)]) == 0
        assert gate.load(out / "BENCH_fake.current.json") == {"score": 10.0}
