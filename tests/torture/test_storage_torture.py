"""Crash-point torture suite for the segmented storage engine.

Sweeps every (crash site, hit) pair over two schedules — one that tiers
cold segments to an object store, one that compacts below checkpoints —
and asserts the full recovery invariant set from
:mod:`repro.server.crashlab` after each simulated kill: no acked record
lost, replay refusals only past the ack, no phantoms, the hash chain
re-verifies, the tail truncation is logged at most once, and a second
reopen replays the same.

The two schedules are deliberately complementary: tiering everything
but the newest sealed segment (``hot_segments=1``) leaves no contiguous
local run for compaction to merge, so ``compact.*`` sites are only
reachable in the untiered schedule, while ``tier.*`` sites are only
reachable in the tiered one.  A coverage test at the bottom asserts the
union of the two schedules reaches every site in ``CRASH_POINTS`` — if
the engine grows a site neither schedule exercises, that test fails
rather than the gap going quietly untested.

One case sits outside the sweep: a retire killed between storing the
retiring placement and dropping the segments, recovered by a fresh
server (the write order ``DataCapsuleServer.host_capsule`` relies on).
"""

import os

import pytest

from repro.baselines.s3sim import MemoryObjectTier
from repro.server.crashlab import (
    ScheduleConfig,
    build_history,
    count_crash_sites,
    run_crash_case,
    run_schedule,
    verify_recovery,
)
from repro.server.segmented import CRASH_POINTS, SimulatedCrash

#: (config, uses_tier) — segment_bytes=700 forces a seal every ~3
#: records, so a 48-record history crosses every boundary many times.
SCHEDULES = {
    "tiered": (
        ScheduleConfig(segment_bytes=700, hot_segments=1, compact_every=16),
        True,
    ),
    "compacting": (
        ScheduleConfig(segment_bytes=700, hot_segments=2, compact_every=12),
        False,
    ),
}


def _make_tier(uses_tier: bool):
    return MemoryObjectTier() if uses_tier else None


def _sample_hits(count: int) -> list[int]:
    """All hits when cheap; otherwise first, second, middle, and the
    last two — the boundaries where off-by-one recovery bugs live."""
    if count <= 6:
        return list(range(1, count + 1))
    return sorted({1, 2, count // 2, count - 1, count})


@pytest.fixture(scope="module")
def history():
    return build_history(48, strategy="checkpoint:8")


@pytest.fixture(scope="module")
def site_counts(history, tmp_path_factory):
    """Dry-run each schedule once: how often is each site reached?"""
    counts = {}
    for label, (config, uses_tier) in SCHEDULES.items():
        root = tmp_path_factory.mktemp(f"count-{label}")
        counts[label] = count_crash_sites(
            str(root), _make_tier(uses_tier), history, config
        )
    return counts


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("site", CRASH_POINTS)
def test_crash_at_every_site(schedule, site, history, site_counts, tmp_path):
    config, uses_tier = SCHEDULES[schedule]
    count = site_counts[schedule].get(site, 0)
    if count == 0:
        pytest.skip(f"{site} unreachable under the {schedule} schedule")
    for hit in _sample_hits(count):
        result = run_crash_case(
            str(tmp_path / f"hit{hit}"),
            _make_tier(uses_tier),
            history,
            config,
            site,
            hit,
        )
        assert result.crashed, f"{site}#{hit}: hook never fired"
        assert result.ok, (
            f"{site}#{hit} ({schedule}): acked={result.acked} "
            f"recovered={result.recovered}: {result.violations}"
        )


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_clean_run_recovers_everything(schedule, history, tmp_path):
    """No crash: reopen must yield the full acked history, untruncated."""
    config, uses_tier = SCHEDULES[schedule]
    tier = _make_tier(uses_tier)
    root = str(tmp_path)
    acked, crashed = run_schedule(root, tier, history, config)
    assert not crashed and acked == len(history)
    result = verify_recovery(root, tier, history, config, acked, crashed)
    assert result.ok, result.violations
    assert result.recovered == len(history)
    assert result.truncations == 0


def test_every_crash_point_is_reachable(site_counts):
    """The union of the two schedules must exercise every declared
    site; a site neither schedule reaches is an untested code path."""
    reached = set()
    for counts in site_counts.values():
        reached.update(site for site, n in counts.items() if n > 0)
    assert reached == set(CRASH_POINTS), (
        f"uncovered: {sorted(set(CRASH_POINTS) - reached)}, "
        f"unknown: {sorted(reached - set(CRASH_POINTS))}"
    )


def test_compaction_and_tiering_actually_happened(site_counts):
    """Guard the guards: the schedules only earn their names if the
    expensive paths fired more than trivially often."""
    assert site_counts["tiered"].get("tier.before", 0) >= 5
    assert site_counts["compacting"].get("compact.merged", 0) >= 2
    for counts in site_counts.values():
        assert counts.get("seal.post_manifest", 0) >= 10


def test_crash_between_retiring_placement_and_drop(process_world):
    """Kill the store after a retire stored its placement but before it
    dropped the capsule's segments: a fresh server over the reopened
    store does not host the capsule, a replayed earlier placement
    changes nothing, and recovery removes the leftover segments."""
    w = process_world
    server = w.boot()
    v1 = w.placement(1, [server.name, w.other.name])
    assert w.host(server, v1)["ok"]
    assert w.append(server)["ok"]

    def killed(name):
        raise SimulatedCrash("killed before the drop")

    server.storage.drop_entries = killed
    with pytest.raises(SimulatedCrash):
        w.host(server, w.placement(2, [w.other.name]))
    capsule_dir = os.path.join(w.root, w.name.hex())
    assert any(f.endswith(".seg") for f in os.listdir(capsule_dir))

    fresh = w.boot()
    assert len(list(fresh.storage.load_entries(w.name))) == 4  # the leftovers
    assert fresh.recover_from_storage() == 0
    assert w.name not in fresh.hosted
    assert fresh.last_recovery["hosting_refused"] == 0
    assert w.host(fresh, v1)["ok"]
    assert w.name not in fresh.hosted
    assert list(fresh.storage.load_entries(w.name)) == []
    assert fresh.storage.segments(w.name)[0].records == 0
