"""Episode runner smoke (tier-1) and the nightly soak sweep.

Tier-1 runs a handful of seeds end to end — enough to catch a broken
runner or oracle immediately.  The ``soak`` marker (excluded by
default, selected nightly with ``pytest -m soak``) sweeps a wide seed
range; ``SIMTEST_EPISODES`` / ``SIMTEST_BASE_SEED`` size the sweep so
CI can scale it without code changes.
"""

import os

import pytest

from repro.simtest import run_episode

#: nightly defaults; tier-1 never sees these
SOAK_EPISODES = int(os.environ.get("SIMTEST_EPISODES", "25"))
SOAK_BASE_SEED = int(os.environ.get("SIMTEST_BASE_SEED", "1000"))


@pytest.mark.tier1
# seed 33: a tampered sync reply offers an unattested record, which the
# strict single-writer oracles would flag had sync stored it
@pytest.mark.parametrize("seed", [1, 2, 7, 33])
def test_episode_passes(seed):
    result = run_episode(seed)
    assert result.ok, result.report()
    assert result.op_log, "episode ran no operations"
    assert result.trace_bytes


@pytest.mark.tier1
def test_episode_survives_heavy_fault_schedule():
    """Arming every middleware plus a crash and a partition at once must
    not crash the runner — violations, if any, go through the report."""
    from repro.simtest import FaultEvent

    schedule = [
        FaultEvent("drop", 0, 0.5, 2.0, 0.4),
        FaultEvent("tamper", 0, 0.7, 2.0, 0.3),
        FaultEvent("delay", 0, 0.9, 2.0, 0.3),
        FaultEvent("replay", 0, 1.1, 2.0, 0.3),
        FaultEvent("crash", 0, 1.3, 2.0, 0.0),
        FaultEvent("partition", 0, 1.5, 2.0, 0.0),
    ]
    result = run_episode(2, faults_override=schedule)
    assert result.error is None, result.report()
    assert result.ok, result.report()


@pytest.mark.tier1
@pytest.mark.parametrize("seed", [4, 9])
def test_dht_root_episode_passes(seed):
    """Chaos episodes with the Kademlia-backed global GLookup tier:
    every oracle — including the DHT-store consistency extension of
    ``fib_glookup`` — must hold with routing state living in the
    untrusted DHT."""
    result = run_episode(seed, dht_root=True)
    assert result.ok, result.report()
    assert result.op_log, "episode ran no operations"


@pytest.mark.tier1
@pytest.mark.parametrize("seed", [3, 11])
def test_crash_bias_episode_passes(seed):
    """The crash-biased profile (faults skewed toward server crashes
    and partitions long enough to outlive advertisement leases) must
    still satisfy every oracle — including post-heal reachability."""
    result = run_episode(seed, profile="crash_bias")
    assert result.ok, result.report()


@pytest.mark.tier1
@pytest.mark.parametrize("seed", [5, 12])
def test_commit_episode_passes(seed):
    """The commit profile attaches a sharded commit plane (PR 9) and
    races CAS submitters against it mid-chaos; the ``commit_order``
    oracle must confirm per-shard linearizability, no phantom acks, and
    no lost updates."""
    result = run_episode(seed, profile="commit")
    assert result.ok, result.report()
    assert result.plan.commit_plane is not None
    assert any("commit" in line for line in result.op_log), (
        "commit submitters ran no operations"
    )


@pytest.mark.tier1
@pytest.mark.parametrize("seed", [6, 13])
def test_dht_churn_episode_passes(seed):
    """The DHT-churn profile kills up to k-1 overlay nodes per window
    (the design-point replica loss) while the workload keeps resolving
    through the DHT-backed global tier; the ``fib_glookup`` oracle's
    replication-factor judgment must confirm every published name healed
    back to ``min(k, live_nodes)`` holders."""
    result = run_episode(seed, profile="dht_churn")
    assert result.ok, result.report()
    assert any(
        event.kind == "dht_crash" for event in result.plan.faults
    ), "churn profile drew no dht_crash windows"


@pytest.mark.soak
@pytest.mark.parametrize("seed", range(SOAK_BASE_SEED, SOAK_BASE_SEED + SOAK_EPISODES))
def test_soak_episode(seed):
    result = run_episode(seed)
    assert result.ok, result.report()


#: crash-bias sweep size; the routing-resilience acceptance bar is 200
RESILIENCE_EPISODES = int(os.environ.get("SIMTEST_RESILIENCE_EPISODES", "200"))
RESILIENCE_BASE_SEED = int(os.environ.get("SIMTEST_RESILIENCE_BASE_SEED", "5000"))


@pytest.mark.soak
@pytest.mark.parametrize(
    "seed",
    range(RESILIENCE_BASE_SEED, RESILIENCE_BASE_SEED + RESILIENCE_EPISODES),
)
def test_soak_crash_bias_episode(seed):
    """Nightly reachability sweep: crash/partition-heavy fault windows
    sized to lapse leases, judged by the reachability oracle."""
    result = run_episode(seed, profile="crash_bias")
    assert result.ok, result.report()


#: commit-plane sweep size; the sharded-commit acceptance bar is 200
COMMIT_EPISODES = int(os.environ.get("SIMTEST_COMMIT_EPISODES", "200"))
COMMIT_BASE_SEED = int(os.environ.get("SIMTEST_COMMIT_BASE_SEED", "9000"))


@pytest.mark.soak
@pytest.mark.parametrize(
    "seed",
    range(COMMIT_BASE_SEED, COMMIT_BASE_SEED + COMMIT_EPISODES),
)
def test_soak_commit_episode(seed):
    """Nightly commit-order sweep: racing CAS submitters against the
    sharded commit plane under chaos, judged by the ``commit_order``
    oracle (linearizable per-shard logs, zero lost updates)."""
    result = run_episode(seed, profile="commit")
    assert result.ok, result.report()


#: DHT-churn sweep size; the churn-tolerance acceptance bar is 200
DHT_CHURN_EPISODES = int(os.environ.get("SIMTEST_DHT_CHURN_EPISODES", "200"))
DHT_CHURN_BASE_SEED = int(
    os.environ.get("SIMTEST_DHT_CHURN_BASE_SEED", "13000")
)


@pytest.mark.soak
@pytest.mark.parametrize(
    "seed",
    range(DHT_CHURN_BASE_SEED, DHT_CHURN_BASE_SEED + DHT_CHURN_EPISODES),
)
def test_soak_dht_churn_episode(seed):
    """Nightly DHT-churn sweep: overlay-node crash windows (capped at
    k-1 concurrent) against the message-level Kademlia tier, judged by
    the replication-factor extension of ``fib_glookup`` plus post-heal
    reachability."""
    result = run_episode(seed, profile="dht_churn")
    assert result.ok, result.report()
