"""Property tests: segmented-store crash recovery (ROADMAP item 3).

Hypothesis drives the crashlab checker over *generated* schedules: the
segment size, tiering, compaction cadence, history length, and the
(site, hit) kill point are all drawn, so seal/tier/compact boundaries
land at arbitrary offsets relative to the crash.  The invariant is
always the same — replaying the reopened log yields a verified prefix of
the acked history and refuses nothing at or below the ack (a seal that
split a run from its heartbeat may leave an unacked record refused), and
the tail truncation is logged at most once (second reopen: never, and it
replays to the same record set).
"""

import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.s3sim import MemoryObjectTier
from repro.server.crashlab import (
    CrashHook,
    ScheduleConfig,
    TortureHistory,
    build_history,
    run_schedule,
    verify_recovery,
)
from repro.server.segmented import CRASH_POINTS


@pytest.fixture(scope="module")
def history():
    """One signed 40-record history, minted once — hypothesis varies
    the schedule around it, never the (expensive) signatures."""
    return build_history(40, strategy="checkpoint:8", seed=b"props")


def prefix_of(history: TortureHistory, n: int) -> TortureHistory:
    return TortureHistory(
        history.metadata,
        history.steps[:n],
        history.record_digests[:n],
        history.checkpoint_every,
    )


configs = st.builds(
    ScheduleConfig,
    segment_bytes=st.integers(min_value=300, max_value=1600),
    hot_segments=st.integers(min_value=1, max_value=3),
    compact_every=st.sampled_from([0, 5, 8, 12]),
    fsync_policy=st.just("always"),
)


class TestCrashRecovery:
    @settings(max_examples=30, deadline=None)
    @given(
        config=configs,
        tier_on=st.booleans(),
        site=st.sampled_from(CRASH_POINTS),
        hit=st.integers(min_value=1, max_value=120),
        n=st.integers(min_value=5, max_value=40),
    )
    def test_recovery_invariants_hold_at_any_kill_point(
        self, history, config, tier_on, site, hit, n
    ):
        """Kill the store at the hit-th arrival of *site* (or never, if
        the drawn schedule doesn't reach it that often) — either way the
        reopened store must satisfy every recovery invariant."""
        sub = prefix_of(history, n)
        tier = MemoryObjectTier() if tier_on else None
        hook = CrashHook(site, hit)
        root = tempfile.mkdtemp(prefix="segprop-")
        try:
            acked, crashed = run_schedule(root, tier, sub, config, hook)
            assert crashed == (hook.seen >= hit)
            if not crashed:
                assert acked == n
            result = verify_recovery(root, tier, sub, config, acked, crashed)
            assert result.ok, (
                f"{site}#{hit} n={n} tier={tier_on} {config}: "
                f"acked={result.acked} recovered={result.recovered}: "
                f"{result.violations}"
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)

    @settings(max_examples=15, deadline=None)
    @given(config=configs, tier_on=st.booleans(), n=st.integers(5, 40))
    def test_clean_shutdown_loses_nothing(self, history, config, tier_on, n):
        """Without a crash, every knob combination round-trips the full
        history: nothing truncated, nothing lost, nothing refused."""
        sub = prefix_of(history, n)
        tier = MemoryObjectTier() if tier_on else None
        root = tempfile.mkdtemp(prefix="segclean-")
        try:
            acked, crashed = run_schedule(root, tier, sub, config)
            assert not crashed and acked == n
            result = verify_recovery(root, tier, sub, config, acked, crashed)
            assert result.ok, result.violations
            assert result.recovered == n
            assert result.truncations == 0
        finally:
            shutil.rmtree(root, ignore_errors=True)
