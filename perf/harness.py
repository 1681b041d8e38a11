"""Measurement harness: speed probe, round meter, estimators, work dirs.

One run = set-up (repeated, median kept) -> one discarded warm-up round
-> N measured rounds of a fixed op count.  Every timing metric is
computed per round and the reported value is the median of the rounds.

The machine this runs on is a shared 2-core VM whose compute speed
steps between discrete levels (+-30 %, each held for 0.1-10 s); a plain
median of rounds does not repeat within a tenth there.  So the meter
interleaves a fixed *speed probe* with the measured work (every few
tens of milliseconds) and scales each chunk's CPU-bound time to what it
would have been had the probe taken ``REFERENCE_PROBE_S`` throughout
("speed-normalised" time).  Raw times are kept and printed beside the
normalised ones.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import statistics
import time

#: the probe's duration on the reference VM in its most common speed
#: state; normalised times read as "on a machine where the probe takes
#: this long".  A constant, so that values compare across runs.
REFERENCE_PROBE_S = 0.0009

#: measured rounds at BENCHMARK.json's ``run_seconds``; ``--seconds``
#: scales the round count, never the op count of a round
ROUNDS_AT_RUN_SECONDS = 8
RUN_SECONDS = 10

_PROBE_PRIME = 2**255 - 19
_PROBE_BLOCK = bytes(range(256)) * 16


def speed_probe() -> float:
    """Seconds a fixed kernel takes right now: interpreter bytecode,
    big-integer modular arithmetic and SHA-256, the instruction mix of
    the system under test (pure-Python ECDSA, encoding, hashing)."""
    start = time.perf_counter()
    x = 12345
    for _ in range(4000):
        x = (x * 1103515245 + 12345) % 2147483648
    for _ in range(3):
        x = pow(x + 3, _PROBE_PRIME - 2, _PROBE_PRIME)
    for _ in range(8):
        hashlib.sha256(_PROBE_BLOCK).digest()
    return time.perf_counter() - start


def rounds_for(seconds: float) -> int:
    """How many measured rounds a run of *seconds* makes."""
    return max(2, round(ROUNDS_AT_RUN_SECONDS * seconds / RUN_SECONDS))


def median(values) -> float:
    """The median-of-rounds estimator (all reported timings)."""
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of *values* (q in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Round:
    """What one measured round produced (times in seconds).

    ``layers`` (traced rounds only) maps a span name to ``(calls, self
    seconds, inclusive seconds, longest call, size counter)``; self time
    is CPU-bound and speed-normalised like ``cpu_norm``, inclusive times
    span waits and stay raw."""

    __slots__ = (
        "ops", "failed", "wall", "cpu", "wall_norm", "cpu_norm",
        "latencies", "latencies_norm", "sim_elapsed", "traced", "layers",
    )

    def ops_s(self, clock: str) -> float:
        if clock == "simulated":
            return self.ops / self.sim_elapsed
        return self.ops / (self.wall_norm if clock == "normalised" else self.wall)

    def p50_ms(self, clock: str) -> float:
        values = self.latencies_norm if clock == "normalised" else self.latencies
        return median(values) * 1000.0

    def cpu_ms_per_op(self) -> float:
        return self.cpu_norm / self.ops * 1000.0


class RoundMeter:
    """Times one round in chunks separated by speed probes.

    The workload calls :meth:`record` after each op and :meth:`tick` at
    chunk boundaries (every few tens of milliseconds of work); the
    probe itself is outside every timed interval.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.sim_elapsed = 0.0
        self._chunks: list[tuple] = []
        self._failed = 0

    def start(self) -> None:
        gc.collect()
        self._probe = speed_probe()
        self._open()

    def _open(self) -> None:
        self._latencies: list[float] = []
        if self.tracer is not None:
            self.tracer.resume()
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()

    def record(self, latency_s: float, ok: bool = True) -> None:
        """One op finished after *latency_s* (the workload's clock)."""
        self._latencies.append(latency_s)
        if not ok:
            self._failed += 1
        if self.tracer is not None:
            self.tracer.op += 1

    def _close(self) -> None:
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._cpu0
        layers = self.tracer.pause() if self.tracer is not None else None
        probe = speed_probe()
        self._chunks.append(
            (wall, cpu, (self._probe + probe) / 2.0, self._latencies, layers)
        )
        self._probe = probe

    def tick(self) -> None:
        """Close the current chunk, probe the machine, open the next."""
        self._close()
        self._open()

    def finish(self) -> Round:
        self._close()
        out = Round()
        out.failed = self._failed
        out.sim_elapsed = self.sim_elapsed
        out.traced = self.tracer is not None and self.tracer.recording
        out.wall = out.cpu = out.wall_norm = out.cpu_norm = 0.0
        out.latencies, out.latencies_norm, out.layers = [], [], {}
        for wall, cpu, probe, latencies, layers in self._chunks:
            scale = REFERENCE_PROBE_S / probe
            out.wall += wall
            out.cpu += cpu
            out.wall_norm += wall * scale
            out.cpu_norm += cpu * scale
            out.latencies.extend(latencies)
            out.latencies_norm.extend(lat * scale for lat in latencies)
            for name, (calls, self_s, whole_s, max_s, size) in (layers or {}).items():
                seen = out.layers.get(name, (0, 0.0, 0.0, 0.0, 0))
                out.layers[name] = (
                    seen[0] + calls,
                    seen[1] + self_s * scale,
                    seen[2] + whole_s,
                    max(seen[3], max_s),
                    seen[4] + size,
                )
        out.ops = len(out.latencies)
        return out


class CountedFsync:
    """While active, ``os.fsync`` is counted and *not* issued.

    The stores live inside the checkout, on the VM's shared virtual
    disk, whose flush latency is not the hardware under test and did not
    repeat (3-5 ms per bulk op, +-70 % run to run).  Every fsync the
    program decides on still executes as a call and is counted, every
    byte is still written, sealed, uploaded to the tier and read back by
    the recovery oracle — only the device flush is skipped, which is
    what hosting the stores on tmpfs does."""

    def __init__(self):
        self.calls = 0

    def _fsync(self, fd) -> None:
        self.calls += 1

    def __enter__(self) -> "CountedFsync":
        self._real = os.fsync
        os.fsync = self._fsync
        return self

    def __exit__(self, *exc) -> None:
        os.fsync = self._real


class WorkDir:
    """Scratch space inside the checkout, removed on success and
    failure; storage roots and tier directories live here."""

    def __init__(self, label: str):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.path = os.path.join(root, ".perf_work", f"{label}-{os.getpid()}")

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass  # another workload's run is still using it


def tree_bytes(root: str) -> int:
    """Bytes of every regular file under *root*."""
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, files in os.walk(root)
        for name in files
    )


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def storage_medium(path: str) -> str:
    """The filesystem type holding *path* (printed with the results)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind
