"""``name_churn``: the routing tables under lease churn."""

from __future__ import annotations

import itertools
import time

from repro.crypto import SigningKey
from repro.naming.metadata import make_server_metadata
from repro.naming.names import GdpName
from repro.routing.fib import CompactFib
from repro.routing.glookup import GLookupService, RouteEntry

from perf import gen
from perf.workloads.base import Workload

NAMES = 200_000
#: names whose lease ends (and names newly registered) every step
CHURN = 500
LOOKUPS_LIVE = 2000
LOOKUPS_DEAD = 200
#: names installed between two speed probes of the pre-fill
FILL_SLICE = 2000
#: leases are staggered one batch of CHURN names per clock second
LEASE_STEP_S = 1.0


class NameChurn(Workload):
    name = "name_churn"
    why = (
        "GLookupService + CompactFib at 200,000 names doing all four table "
        "jobs per step (purge, insert, refresh, lookup); no crypto, encoding, "
        "transport or storage; its set-up is the 200k-name fill"
    )
    topology = "in-process tables, manual clock, no network"
    clock = "normalised"
    ops_per_round = 24
    smoke_ops_per_round = 3
    probe_every = 1
    expected_spans = (
        "routing.glookup.register", "routing.glookup.lookup",
        "routing.glookup.purge", "routing.fib.set", "routing.fib.get",
        "routing.fib.purge",
    )
    #: the fill alone takes seconds of steady work
    setup_repeats = 1

    @property
    def names(self) -> int:
        """Names kept live throughout the run."""
        return 20_000 if self.smoke else NAMES

    def setup(self, lap) -> None:
        server = SigningKey.from_seed(b"perf-routing-server")
        self.server_md = make_server_metadata(server, server.public)
        self.now = 0.0
        self.glookup = GLookupService(
            "perf", verify_on_register=False, clock=lambda: self.now
        )
        self.fib = CompactFib(clock=lambda: self.now)
        self.hop = object()
        # the fill, timed whole and over its last tenth (raw seconds)
        last_decile = self.names - self.names // 10
        spent = decile_spent = 0.0
        for first in range(0, self.names, FILL_SLICE):
            start = time.perf_counter()
            for i in range(first, min(first + FILL_SLICE, self.names)):
                self._install(*self._entry(i))
            took = time.perf_counter() - start
            spent += took
            if first >= last_decile:
                decile_spent += took
            lap()
        self.prefill_names_per_s = self.names / spent
        self.prefill_last_decile_names_per_s = (self.names - last_decile) / decile_spent

    def _expiry(self, index: int) -> float:
        return (index // CHURN) * LEASE_STEP_S + LEASE_STEP_S / 2

    def _entry(self, index: int):
        name = GdpName(gen.name_raw(self.seed, index))
        expiry = self._expiry(index)
        entry = RouteEntry(
            name,
            router=self.server_md.name,
            principal=self.server_md.name,
            principal_metadata=self.server_md,
            rtcert=None,
            chain=None,
            router_metadata=None,
            expires_at=expiry,
        )
        return entry, expiry

    def _install(self, entry, expiry) -> None:
        self.glookup.register(entry)
        self.fib[entry.name] = (self.hop, expiry)

    def round_inputs(self):
        """Per step: its number and the name ids it installs (new, then
        refreshed), resolves live and resolves dead.  After step *s*,
        ids below ``CHURN * s`` are dead."""
        choices = gen.rng(self.seed, "churn")
        for first in itertools.count(1, self.round_ops):
            steps = []
            for step in range(first, first + self.round_ops):
                dead_below = CHURN * step
                first_new = self.names + CHURN * (step - 1)
                installs = list(range(first_new, first_new + CHURN)) + [
                    choices.randrange(dead_below, first_new) for _ in range(CHURN)
                ]
                live = [
                    choices.randrange(dead_below, first_new + CHURN)
                    for _ in range(LOOKUPS_LIVE)
                ]
                dead = [choices.randrange(dead_below) for _ in range(LOOKUPS_DEAD)]
                steps.append((step, installs, live, dead))
            yield steps

    def run_round(self, meter):
        steps = [
            (
                step,
                [self._entry(i) for i in installs],
                [GdpName(gen.name_raw(self.seed, i)) for i in live],
                [GdpName(gen.name_raw(self.seed, i)) for i in dead],
            )
            for step, installs, live, dead in next(self._rounds)
        ]
        glookup, fib = self.glookup, self.fib
        meter.start()
        for index, (step, installs, live, dead) in enumerate(steps):
            if index:
                meter.tick()
            start = time.perf_counter()
            self.now = step * LEASE_STEP_S
            purged = (glookup.purge_expired(), fib.purge_expired())
            for entry, expiry in installs:
                self._install(entry, expiry)
            misses = sum(
                1 for name in live if not glookup.lookup(name) or fib.get(name) is None
            )
            hits = sum(
                1 for name in dead if glookup.lookup(name) or fib.get(name) is not None
            )
            ok = purged == (CHURN, CHURN) and misses == 0 and hits == 0
            meter.record(time.perf_counter() - start, ok)
        return meter.finish()

    def teardown(self) -> None:
        self.stored_bytes = self.glookup.memory_bytes() + self.fib.memory_bytes()
        self.user_bytes = self.names * 32

    def extras(self) -> dict:
        return {
            "tables_bytes_per_name": self.stored_bytes / self.names,
            "prefill_names_per_s": self.prefill_names_per_s,
            "prefill_last_decile_names_per_s": self.prefill_last_decile_names_per_s,
        }

    def verify(self) -> int:
        """Churn replaces names one for one: the tables end the run at
        their pre-filled size."""
        return int(len(self.glookup) != self.names) + int(len(self.fib) != self.names)
