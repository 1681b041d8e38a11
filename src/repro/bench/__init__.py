"""The per-layer benchmark suites and their registry.

Every suite is a module with the same three things — ``run(quick,
note)`` returning the ``BENCH_<name>.json`` document, ``GATES`` (the
:class:`~repro.bench.gate.Gate` rows the perf gate judges) and
``table(doc)`` (the human-readable rows) — and one entry in
:data:`SUITES`.  The CLI, CI and the gate tests read the registry, so a
suite added here is run, printed and gated with no other edit.

These suites explain single layers; the end-to-end ruler is ``perf/``
(``BENCHMARK.json``), and ``docs/PERFORMANCE.md`` says which of its
per-layer cells each suite sits under.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.bench import (
    commit,
    crypto,
    gate,
    paper,
    replication,
    routing,
    storage,
    transport,
)

__all__ = ["Suite", "SUITES", "IN_PROCESS", "gate"]


class Suite(NamedTuple):
    """One registered suite: how to run it, judge it, print it, and the
    committed baseline it gates against."""

    run: Callable[..., dict]
    gates: tuple
    table: Callable[[dict], list]
    baseline: str


SUITES: dict[str, Suite] = {
    (name := module.__name__.rpartition(".")[2]): Suite(
        module.run, module.GATES, module.table, f"BENCH_{name}.json"
    )
    for module in (
        crypto, replication, storage, routing, commit, paper, transport
    )
}

#: what ``--suite all`` runs: every suite that needs no process fleet
#: (the transport suite boots one — ``repro loadgen`` / the socket job)
IN_PROCESS = tuple(name for name in SUITES if name != "transport")
