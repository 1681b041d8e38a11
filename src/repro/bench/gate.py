"""The one perf-gate engine behind ``repro bench`` and ``repro loadgen``.

A suite declares what it gates as :class:`Gate` rows; :func:`check`
judges a fresh benchmark document against a committed baseline with the
same rule for every row:

1. the gated field must be present — otherwise exactly one
   ``"<path>: missing from current run"`` failure;
2. it must clear its absolute ``floor`` / ``ceiling`` (the acceptance
   criteria — these hold on any machine);
3. it must stay within ``band`` (30%) of the baseline in the row's
   ``better`` direction — improvements never fail.  ``slack`` is an
   absolute margin a regression must *also* exceed (jitter on a small
   base is not a regression); a value at or under ``noise_floor`` is
   exempt from the band but never from the ceiling.  A row whose
   ``better`` is ``"equal"`` (:func:`exact` — a deterministic cell)
   must instead *equal* the baseline: a move in either direction is a
   reviewed diff of the committed file, not silent drift.

A path containing ``.*.`` expands over the cells of a container — the
values of a dict, or the elements of a list matched between the two
documents by their ``key`` field — and judges every cell the current
run measured, so a ``--quick`` run that measured fewer levels gates
cleanly against a full baseline.  An expansion that finds no cell at all
is missing, not vacuously green.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = [
    "Gate", "exact", "check", "cells", "percentile", "latency_summary",
    "format_table", "load", "dump",
]

#: relative regression a banded row tolerates against the baseline
BAND = 0.30


@dataclass(frozen=True)
class Gate:
    """One gated field of a benchmark document (see the module doc)."""

    path: str
    better: str  # "higher" | "lower" | "equal"
    floor: float | None = None
    ceiling: float | None = None
    band: float | None = BAND
    slack: float = 0.0
    noise_floor: float | None = None
    key: str | None = None
    why: str = ""


def exact(path: str, **limits) -> Gate:
    """The row for a cell that is a function of the code alone (simulated
    time, byte and structure counts): equal to the baseline, plus any
    ``floor`` / ``ceiling``."""
    return Gate(path, "equal", band=None, **limits)


def _get(node, dotted: str):
    """The value at *dotted* under *node*; ``None`` when any step is
    absent (a JSON ``null`` counts as absent too)."""
    for step in dotted.split("."):
        if not isinstance(node, dict):
            return None
        node = node.get(step)
    return node


def cells(doc: dict, gate: Gate) -> list[tuple[str, object]]:
    """Every concrete ``(label, value)`` *gate* resolves to in *doc*:
    one pair for a plain path, one per container cell for an expansion
    (none when the container is absent or empty)."""
    head, star, tail = gate.path.partition(".*.")
    if not star:
        return [(gate.path, _get(doc, gate.path))]
    container = _get(doc, head)
    if isinstance(container, dict):
        members = [(f"{head}.{name}", cell)
                   for name, cell in sorted(container.items())]
    elif isinstance(container, list) and gate.key is not None:
        members = [(f"{head}[{_get(cell, gate.key)}]", cell)
                   for cell in container]
    else:
        members = []
    return [(f"{label}.{tail}", _get(cell, tail)) for label, cell in members]


def _judge(gate: Gate, label: str, value, base) -> list[str]:
    if value is None:
        return [f"{label}: missing from current run"]
    failures = []
    why = f" ({gate.why})" if gate.why else ""
    if gate.floor is not None and value < gate.floor:
        failures.append(
            f"{label}: {value} is below the {gate.floor} acceptance "
            f"floor{why}"
        )
    if gate.ceiling is not None and value > gate.ceiling:
        failures.append(
            f"{label}: {value} exceeds the {gate.ceiling} acceptance "
            f"ceiling{why}"
        )
    if gate.better == "equal":
        if base is not None and value != base:
            failures.append(
                f"{label}: {value} differs from baseline {base} (a "
                "deterministic cell: commit the new value if it is meant)"
            )
        return failures
    if gate.band is None or not base:
        return failures  # presence/absolute row, or nothing to compare to
    if gate.noise_floor is not None and value <= gate.noise_floor:
        return failures
    if gate.better == "higher":
        regressed = value < base * (1 - gate.band)
    else:
        regressed = (
            value > base * (1 + gate.band) and value > base + gate.slack
        )
    if regressed:
        margin = f" (and by more than {gate.slack})" if gate.slack else ""
        failures.append(
            f"{label}: {value} regressed >{gate.band:.0%}{margin} from "
            f"baseline {base}"
        )
    return failures


def check(doc: dict, baseline: dict, gates) -> list[str]:
    """Judge *doc* against *baseline* row by row; returns the failure
    strings (empty = the gate passes)."""
    failures = []
    for gate in gates:
        measured = cells(doc, gate)
        if not measured:
            failures.append(f"{gate.path}: missing from current run")
        base = dict(cells(baseline, gate))
        for label, value in measured:
            failures += _judge(gate, label, value, base.get(label))
    return failures


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of *samples* (q in [0, 1])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def latency_summary(samples_ms: list[float], digits: int) -> dict:
    """The ``samples/p50_ms/p99_ms/max_ms`` cell of wall-clock suites."""
    return {
        "samples": len(samples_ms),
        "p50_ms": round(percentile(samples_ms, 0.50), digits),
        "p99_ms": round(percentile(samples_ms, 0.99), digits),
        "max_ms": round(max(samples_ms), digits),
    }


def format_table(sections) -> str:
    """Render a suite's table: each section is either a free-text line
    or ``(headers, rows)``, printed with columns aligned (first column
    left, the rest right)."""
    lines = []
    for section in sections:
        if isinstance(section, str):
            lines.append(section)
            continue
        headers, rows = section
        grid = [[str(cell) for cell in row] for row in (headers, *rows)]
        widths = [max(len(row[i]) for row in grid) for i in range(len(headers))]
        grid.insert(1, ["-" * width for width in widths])
        lines += [
            "  ".join(
                cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                for i, cell in enumerate(row)
            )
            for row in grid
        ]
    return "\n".join(lines)


def load(path: str) -> dict:
    """Read a ``BENCH_*.json`` document; ``OSError`` / ``ValueError``
    when it is unreadable or not a JSON object."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a benchmark document (JSON object)")
    return doc


def dump(doc: dict, path: str) -> None:
    """Write *doc* the way the committed baselines are written."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
