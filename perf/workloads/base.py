"""What every workload shares: the contract the harness drives, and the
closed-loop driver of the three socket workloads."""

from __future__ import annotations

import itertools
import time

from repro.errors import GdpError

from perf import harness
from perf.harness import Round, RoundMeter


class Workload:
    """One named workload.  Subclasses fill in the class attributes and
    the four phases; the harness owns timing and reporting."""

    name = ""
    #: one line: why this workload is in the benchmark
    why = ""
    #: how the nodes are wired (stated with the results)
    topology = "loopback TCP, one event loop, no real link"
    #: clock of ``ops_s`` / ``p50_ms``: "wall", "normalised", "simulated"
    clock = "wall"
    #: ops in one round (constants, not durations) and in smoke mode
    ops_per_round = 0
    smoke_ops_per_round = 0
    #: ops between two speed probes (a few tens of milliseconds of work)
    probe_every = 10
    #: set-ups per run; the median is reported
    setup_repeats = 3
    #: bytes the user hands the system in one op (0: not a data workload)
    user_bytes_per_op = 0
    #: span names a traced run of this workload must see at least once
    expected_spans: tuple = ()
    #: share of CPU per op the spans must cover (0: not checked)
    min_coverage = 0.0

    def __init__(self, seed: int, root: str, *, smoke: bool = False):
        self.seed = seed
        self.root = root
        self.smoke = smoke
        self.round_ops = self.smoke_ops_per_round if smoke else self.ops_per_round
        #: bytes the user handed the system / bytes it retains (set by
        #: the workload; their ratio is ``stored_bytes_per_user_byte``)
        self.user_bytes = 0
        self.stored_bytes = 0
        self._rounds = self.round_inputs()

    def round_inputs(self):
        """Generator of the op inputs of each successive round — a pure
        function of the seed (what the determinism tests digest)."""
        raise NotImplementedError

    def plan(self, rounds: int) -> list:
        """The inputs the first *rounds* rounds would issue."""
        return list(itertools.islice(self.round_inputs(), rounds))

    def setup(self, lap) -> None:
        """Keys, topology boot, placement, preload (timed as set-up);
        call ``lap()`` every few tens of milliseconds of work so the
        set-up time can be speed-normalised like a round."""
        raise NotImplementedError

    def run_round(self, meter: RoundMeter) -> Round:
        """Issue ``next(self._rounds)`` through *meter*."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Close transports, stores and loops (not the work dir)."""

    def verify(self) -> int:
        """End-of-run oracle, after :meth:`teardown`; returns how many
        acknowledged results it could not find again."""
        return 0

    def extras(self) -> dict:
        """Run-level counts the per-layer table reads (after
        :meth:`teardown`): segment and tier bytes, commit conflicts,
        pre-fill rates."""
        return {}

    def remote_nodes(self) -> list:
        """Nodes whose spans count as the remote replica's."""
        return []


class SocketWorkload(Workload):
    """A workload on the two-slot socket fleet (``self.fleet``, built by
    the subclass's ``setup``): shared tear-down and storage totals."""

    def remote_nodes(self) -> list:
        return self.fleet.servers[1:]

    def teardown(self) -> None:
        self.fleet.close()
        self.stored_bytes = harness.tree_bytes(self.fleet.root)

    def extras(self) -> dict:
        return self.fleet.storage_totals


def drive_closed_loop(fleet, meter: RoundMeter, ops, issue, probe_every: int) -> Round:
    """One client, one op in flight: ``issue(op)`` is a generator that
    performs the op and returns whether its result passed the oracle.
    An op that raises a GDP error (timeouts included) is a failed op."""

    def chunk(batch):
        for op in batch:
            start = time.perf_counter()
            try:
                ok = yield from issue(op)
            except GdpError:
                ok = False
            meter.record(time.perf_counter() - start, ok)

    meter.start()
    for offset in range(0, len(ops), probe_every):
        if offset:
            meter.tick()
        fleet.run(chunk(ops[offset:offset + probe_every]))
    return meter.finish()
