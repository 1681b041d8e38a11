"""The one gate engine judged through the suite registry: properties
that must hold for every row of every suite (missing-field rule, a
``--quick``-shaped run gates cleanly and no row is vacuous on it), the
equality rule of deterministic cells, the rows of the two suites
without a file of their own (crypto, replication), the ``repro bench``
exit codes, the loadgen rendezvous cleanup, the gated-rows table in
docs/PERFORMANCE.md and the tables of EXPERIMENTS.md."""

import copy
import itertools
import pathlib
import re
import tempfile

import pytest

from repro import bench, cli
from repro.bench import gate, transport

ROOT = pathlib.Path(__file__).resolve().parents[2]
ROWS = [
    pytest.param(name, row, id=f"{name}:{row.path}")
    for name, suite in bench.SUITES.items()
    for row in suite.gates
]


def baseline(name):
    return gate.load(ROOT / bench.SUITES[name].baseline)


def holder(doc, label, row):
    """The dict holding the leaf that concrete *label* names, and the
    leaf's key (``levels[10000].fib.x`` walks the list by ``row.key``)."""
    *steps, leaf = re.findall(r"[^.\[\]]+", label)
    for step in steps:
        if isinstance(doc, list):
            doc = next(cell for cell in doc if str(cell[row.key]) == step)
        else:
            doc = doc[step]
    return doc, leaf


def quick_shaped(name):
    """The committed (full) baseline cut down to what ``--quick`` runs."""
    doc = baseline(name)
    if name == "routing":
        level = doc["levels"][0]
        assert level["names"] == 10_000
        doc.update(
            quick=True,
            levels=[level],
            dht=[ring for ring in doc["dht"] if ring["nodes"] == 32],
        )
        doc["gates"].update(
            fib_bytes_per_entry=level["fib"]["bytes_per_entry"],
            warm_resolution_p99_ms=level["glookup"]["warm_lookup"]["p99_ms"],
        )
    elif name == "commit":
        del doc["uniform"]["shards_8"], doc["ratios"]["shard_scaling_8x"]
        doc["quick"] = True
    elif name == "storage":
        doc["quick"] = True
    elif name == "paper":
        doc["quick"] = True
        fig8, a5, a6a = doc["fig8"], doc["a5"], doc["a6a"]
        fig8["times"] = [c for c in fig8["times"] if c["cell"].startswith("28MB/")]
        fig8["shape"] = {"28MB": fig8["shape"]["28MB"]}
        a5["cells"] = [c for c in a5["cells"] if c["replicas"] == 3]
        a6a["depths"] = [c for c in a6a["depths"] if c["depth"] <= 2]
    return doc


@pytest.mark.parametrize("name, row", ROWS)
def test_missing_field_is_exactly_one_failure(name, row):
    base = baseline(name)
    measured = gate.cells(base, row)
    assert measured
    for label, _ in measured:
        doc = copy.deepcopy(base)
        cell, leaf = holder(doc, label, row)
        del cell[leaf]
        assert gate.check(doc, base, bench.SUITES[name].gates) == [
            f"{label}: missing from current run"
        ]


def test_expansion_with_no_cells_is_missing_not_green():
    base = baseline("routing")
    doc = {**base, "levels": []}
    assert gate.check(doc, base, bench.SUITES["routing"].gates) == [
        "levels.*.fib.bytes_per_entry: missing from current run",
        "levels.*.glookup.warm_lookup.p99_ms: missing from current run",
    ]


@pytest.mark.parametrize("name", bench.SUITES)
def test_quick_shaped_run_gates_cleanly_and_no_row_is_vacuous(name):
    suite, base, quick = bench.SUITES[name], baseline(name), quick_shaped(name)
    assert gate.check(quick, base, suite.gates) == []
    assert gate.format_table(suite.table(quick))
    for row in suite.gates:
        measured = gate.cells(quick, row)
        assert measured, f"{row.path} resolves to nothing a quick run has"
        if row.floor is row.ceiling is row.band is None:
            continue  # presence-only row: the missing-field test covers it
        for label, value in measured:
            worse = copy.deepcopy(quick)
            cell, leaf = holder(worse, label, row)
            cell[leaf] = 0 if row.better == "higher" else value * 100
            failures = gate.check(worse, base, suite.gates)
            assert failures and all(f.startswith(label) for f in failures)


@pytest.mark.parametrize("name, path, change, expect", [
    ("crypto", "speedup.verify", lambda row, b: row.floor - 0.1, "floor"),
    ("crypto", "speedup.sign", lambda row, b: row.floor - 0.1, "floor"),
    ("crypto", "speedup.sign", lambda row, b: b * 0.6, "regressed"),
    ("crypto", "speedup.sign", lambda row, b: b * 0.8, None),
    ("crypto", "speedup.verify", lambda row, b: b * 10, None),
    ("replication", "ratios.append_speedup",
     lambda row, b: row.floor - 0.1, "floor"),
    ("replication", "ratios.append_speedup", lambda row, b: b * 0.8, None),
    ("replication", "sync.bytes_per_synced_record",
     lambda row, b: b * 1.4, "regressed"),
    ("replication", "sync.bytes_per_synced_record", lambda row, b: b / 10, None),
    ("replication", "sync.merkle_delta.seconds",
     lambda row, b: b * 1.4, "regressed"),
    ("replication", "sync.merkle_delta.seconds", lambda row, b: b * 1.2, None),
    ("replication", "append.batched.records_per_sec",
     lambda row, b: b * 0.6, "regressed"),
    ("replication", "append.batched.records_per_sec",
     lambda row, b: b * 2, None),
])
def test_crypto_and_replication_rows(name, path, change, expect):
    gates = bench.SUITES[name].gates
    row = next(row for row in gates if row.path == path)
    base = baseline(name)
    doc = copy.deepcopy(base)
    cell, leaf = holder(doc, path, row)
    cell[leaf] = change(row, cell[leaf])
    failures = gate.check(doc, base, gates)
    if expect is None:
        assert failures == []
    else:
        assert failures and all(f.startswith(path) for f in failures)
        assert any(expect in f for f in failures)


@pytest.mark.parametrize("measured, failing", [
    ({"a": 12.5, "b": 3}, ["cells.a"]),  # moved up
    ({"a": 7.5, "b": 3}, ["cells.a"]),  # moved down: not an improvement
    ({"a": 10.0, "b": 3}, []),
    ({"b": 3}, []),  # a --quick run that skipped the cell
    ({"a": 10.0, "b": 3, "new": 1}, []),  # nothing committed to equal yet
])
def test_exact_rows_hold_a_cell_equal_to_the_baseline(measured, failing):
    rows = (gate.exact("cells.*.x"),)
    base = {"cells": {"a": {"x": 10.0}, "b": {"x": 3}}}
    doc = {"cells": {name: {"x": value} for name, value in measured.items()}}
    failures = gate.check(doc, base, rows)
    assert [f.split(".x: ")[0] for f in failures] == failing
    if "a" in measured and measured["a"] != 10.0:
        assert f"{measured['a']} differs from baseline 10.0" in failures[0]


def test_cli_bench_exit_codes(tmp_path, monkeypatch, capsys):
    fake = bench.Suite(
        run=lambda quick, note: {"score": 10.0},
        gates=(gate.Gate("score", "higher", floor=1.0),),
        table=lambda doc: [f"score {doc['score']}"],
        baseline="BENCH_fake.json",
    )
    monkeypatch.setitem(bench.SUITES, "fake", fake)
    monkeypatch.setattr(bench, "IN_PROCESS", ("fake",))
    gate.dump({"score": 10.0}, tmp_path / "BENCH_fake.json")
    gate.dump({"score": 100.0}, tmp_path / "faster.json")
    (tmp_path / "torn.json").write_text('{"score": 1')
    (tmp_path / "list.json").write_text("[10.0]")

    def bench_fake(baseline_file):
        out = tmp_path / "out.json"
        code = cli.main(["bench", "--suite", "fake", "--json", str(out),
                         "--check", str(tmp_path / baseline_file)])
        assert gate.load(out) == {"score": 10.0}
        return code, capsys.readouterr().out

    assert bench_fake("BENCH_fake.json")[0] == 0
    code, out = bench_fake("faster.json")
    assert code == 1 and "score: 10.0 regressed >30%" in out
    for unreadable in ("torn.json", "list.json", "absent.json"):
        assert bench_fake(unreadable)[0] == 2
    # --suite all: --json / --check name the directory of BENCH_* files.
    assert cli.main(["bench", "--suite", "all", "--json", str(tmp_path),
                     "--check", str(tmp_path)]) == 0
    assert gate.load(tmp_path / "BENCH_fake.current.json") == {"score": 10.0}


def test_loadgen_removes_only_the_rendezvous_it_created(tmp_path, monkeypatch):
    from repro.fleet import FleetLauncher

    def refuse(self):
        raise RuntimeError("no fleet in tier-1")

    monkeypatch.setattr(FleetLauncher, "start", refuse)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    mine = tmp_path / "mine"
    mine.mkdir()
    for rendezvous in (None, str(mine)):
        with pytest.raises(RuntimeError, match="no fleet"):
            transport.run(rendezvous=rendezvous)
    assert [path.name for path in tmp_path.iterdir()] == ["mine"]


def test_performance_doc_table_lists_the_registry_rows():
    def text(value):
        return "—" if value is None else f"{value:g}"

    registry = {
        (name, f"`{row.path}`", row.better, text(row.floor),
         text(row.ceiling), text(row.band))
        for name, suite in bench.SUITES.items()
        for row in suite.gates
    }
    doc = (ROOT / "docs" / "PERFORMANCE.md").read_text()
    listed = {
        tuple(cell.strip() for cell in line.split("|")[1:7])
        for line in doc.splitlines()
        if re.match(r"\| \w+ +\| `", line)
    }
    assert listed == registry


def test_experiments_doc_tables_are_the_committed_documents():
    """Every table in EXPERIMENTS.md is a table of the committed
    ``BENCH_{paper,crypto,routing}.json`` (found by its header row), every
    quoted line one of their captions, and no paper table is left out."""
    rendered, captions = {}, set()
    for name in ("paper", "crypto", "routing"):
        for section in bench.SUITES[name].table(baseline(name)):
            if isinstance(section, str):
                captions.add(section)
            else:
                headers, rows = section
                rendered[tuple(map(str, headers))] = [
                    tuple(map(str, row)) for row in rows
                ]
        if name == "paper":
            paper_headers = set(rendered)
    lines = (ROOT / "EXPERIMENTS.md").read_text().splitlines()
    tables = [
        [tuple(cell.strip() for cell in line.split("|")[1:-1]) for line in block]
        for is_table, block in itertools.groupby(
            lines, key=lambda line: line.startswith("|")
        )
        if is_table
    ]
    assert tables
    for headers, _rule, *rows in tables:
        assert rows == rendered[headers], headers
    assert paper_headers <= {block[0] for block in tables}
    quoted = [line[2:] for line in lines if line.startswith("> ")]
    assert quoted and set(quoted) <= captions

