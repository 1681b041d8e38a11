"""Oracle self-tests: every invariant oracle must *fire* when shown an
intentionally broken world, with a precise deterministic diagnostic.

Each test runs a clean fault-free episode to quiesce, breaks exactly one
invariant by hand (tampered record, forged heartbeat, planted sibling
record, diverged replica, stale FIB entry, misfiled GLookup entry,
cooked link counter), and
asserts the matching oracle — and only a targeted run of it — reports
the right subject.  A detector that cannot detect is worse than no
detector; this file is where each one proves itself.
"""

import pytest

from repro.adversary import StorageTamperer
from repro.capsule import Heartbeat, Record
from repro.crypto import SigningKey
from repro.simtest import build_plan, build_world, run_oracles
from repro.simtest.episode import _scenario

SEED = 3


def quiesced_world(seed: int = SEED):
    """A fault-free episode run to quiesce — all oracles green."""
    plan = build_plan(seed, faults_override=[])
    world = build_world(plan)
    world.net.sim.run_process(_scenario(world))
    world.net.sim.run(until=world.net.sim.now + 60.0)
    return world


def tamper_in_place(server, name, seqno: int) -> None:
    """Swap a held record for a forgery without touching any index —
    the digest key stays, the contents no longer hash to it.  (The cruder
    re-indexing tamper of :class:`StorageTamperer` severs chain
    reachability and therefore presents as a hole, which the safety
    oracles rightly tolerate as availability loss.)"""
    (record,) = server.stored_records(name, seqno)
    forged = Record(
        record.capsule, record.seqno,
        record.payload + b"!tampered!", record.pointers,
    )
    server.hosted[name].capsule._by_digest[record.digest] = forged.header()


@pytest.fixture()
def clean_world():
    world = quiesced_world()
    assert run_oracles(world) == [], "fixture episode must start green"
    return world


class TestHashChainOracle:
    def test_fires_on_tampered_record(self, clean_world):
        world = clean_world
        victim = world.servers[0]
        tamper_in_place(victim, world.metadata.name, 1)
        violations = run_oracles(world, names=["hash_chain"])
        assert violations, "tampered record went undetected"
        assert violations[0].oracle == "hash_chain"
        assert violations[0].subject == victim.node_id
        assert "fails verification" in violations[0].detail
        assert "IntegrityError" in violations[0].detail

    def test_fires_on_forged_heartbeat(self, clean_world):
        world = clean_world
        victim = world.servers[1]
        capsule = victim.hosted[world.metadata.name].capsule
        record = capsule.get(1)
        mallory = SigningKey.from_seed(b"oracle-mallory")
        forged = Heartbeat.create(
            mallory, world.metadata.name, 1, record.digest, 1
        )
        capsule._heartbeats.setdefault(1, []).append(forged)
        violations = run_oracles(world, names=["hash_chain"])
        assert any(
            v.subject == f"{victim.node_id}/hb1"
            and "stored heartbeat fails verification" in v.detail
            for v in violations
        ), violations


class TestReadProofOracle:
    def test_fires_on_tampered_record(self, clean_world):
        world = clean_world
        victim = world.servers[0]
        tamper_in_place(victim, world.metadata.name, 1)
        violations = run_oracles(world, names=["read_proof"])
        assert any(
            v.oracle == "read_proof"
            and v.subject == f"{victim.node_id}/record1"
            and "unverifiable proof" in v.detail
            for v in violations
        ), violations


class TestStrictSingleWriter:
    def test_planted_sibling_record_is_a_violation(self, clean_world):
        """Under strict single-writer a second record at one seqno can
        only be one no heartbeat attests: the proof oracle flags it
        rather than shrug it off as availability loss."""
        world = clean_world
        victim = world.servers[1]
        capsule = victim.hosted[world.metadata.name].capsule
        (genuine,) = victim.stored_records(world.metadata.name, 1)
        # planted by a hostile operator, past every check (like tamper_in_place)
        capsule._store(Record(
            genuine.capsule, 1, genuine.payload + b"!planted!",
            genuine.pointers,
        ))
        violations = run_oracles(world, names=["hash_chain", "read_proof"])
        assert [(v.oracle, v.subject) for v in violations] == [
            ("read_proof", f"{victim.node_id}/record1"),
        ], violations
        assert "single-writer replica is branched" in violations[0].detail


class TestConvergenceOracle:
    def test_fires_on_diverged_replica(self, clean_world):
        world = clean_world
        straggler = world.servers[-1]
        StorageTamperer(straggler).rollback(world.metadata.name, keep=0)
        violations = run_oracles(world, names=["convergence"])
        assert any(
            v.oracle == "convergence"
            and v.subject.endswith(f"~{straggler.node_id}")
            and "replicas diverged after heal" in v.detail
            for v in violations
        ), violations

    def test_fires_on_lost_durable_record(self, clean_world):
        world = clean_world
        world.durable_seqnos.append(9999)  # acked, never stored anywhere
        violations = run_oracles(world, names=["convergence"])
        assert violations
        assert all(
            v.subject.endswith("/record9999")
            and v.detail == "record acknowledged with acks=all is missing"
            for v in violations
        ), violations

    def test_fires_when_no_replica_survives(self, clean_world):
        world = clean_world
        for server in world.servers:
            server.crashed = True
        violations = run_oracles(world, names=["convergence"])
        assert [str(v) for v in violations] == [
            "convergence: episode: no live replica survived the heal"
        ]


class TestFibGlookupOracle:
    def test_fires_on_stale_fib_entry(self, clean_world):
        world = clean_world
        hub = world.topo.routers["bb0"]
        # The client hangs off a site router, so it is never adjacent to
        # the backbone hub: a FIB entry pointing there is unforwardable.
        hub.fib[world.metadata.name] = (
            world.client, world.net.sim.now + 1000.0
        )
        violations = run_oracles(world, names=["fib_glookup"])
        assert any(
            v.subject == f"bb0/fib/{world.metadata.name.human()}"
            and "is not adjacent" in v.detail
            for v in violations
        ), violations

    def test_fires_on_misfiled_glookup_entry(self, clean_world):
        """Evidence planted under a name its chain doesn't cover (a
        corrupted backing store — the GLookupService is untrusted) must
        surface as unverifiable routing state."""
        world = clean_world
        planted = False
        for domain in world.topo.domains.values():
            entries = domain.glookup.peek(world.metadata.name)
            if entries:
                entry = entries[0]
                entry.expires_at = None  # keep it live at quiesce
                domain.glookup.plant(world.servers[0].name, entry)
                planted = True
                break
        assert planted, "no GLookup entry to misfile"
        violations = run_oracles(world, names=["fib_glookup"])
        assert any(
            "unverifiable route entry" in v.detail
            and world.servers[0].name.human() in v.subject
            for v in violations
        ), violations


class TestStorageRoundTripOracle:
    def test_fires_on_unpersisted_record(self, clean_world):
        """A record the replica holds in memory but never wrote to its
        log is exactly what a post-crash rebuild would silently lose."""
        world = clean_world
        victim = world.servers[0]
        capsule = victim.hosted[world.metadata.name].capsule
        seqno = max(capsule.seqnos())
        for digest in capsule._by_seqno.pop(seqno):
            capsule._by_digest.pop(digest)
        capsule._heartbeats.pop(seqno, None)
        capsule._sync_leaf_cache.pop(seqno, None)
        violations = run_oracles(world, names=["storage_round_trip"])
        assert any(
            v.oracle == "storage_round_trip"
            and v.subject == victim.node_id
            and "different replica" in v.detail
            for v in violations
        ), violations

    def test_fires_on_storage_only_phantom(self, clean_world):
        """A frame sitting in the log that the replica never served is
        data the next restart would invent."""
        world = clean_world
        victim = world.servers[1]
        wire = victim.stored_records(world.metadata.name, 1)[0].to_wire()
        wire["payload"] = wire["payload"] + b"!phantom!"
        victim.storage.append_entries(world.metadata.name, [("r", wire)])
        violations = run_oracles(world, names=["storage_round_trip"])
        assert violations and all(
            v.oracle == "storage_round_trip" and v.subject == victim.node_id
            for v in violations
        ), violations

    def test_skips_crashed_replicas(self, clean_world):
        world = clean_world
        victim = world.servers[0]
        wire = victim.stored_records(world.metadata.name, 1)[0].to_wire()
        wire["payload"] = wire["payload"] + b"!phantom!"
        victim.storage.append_entries(world.metadata.name, [("r", wire)])
        victim.crashed = True
        assert run_oracles(world, names=["storage_round_trip"]) == []


class TestConservationOracle:
    def test_fires_on_unaccounted_message(self, clean_world):
        world = clean_world
        link = world.net.links[0]
        link._c_sent.inc()  # one phantom send nothing accounts for
        violations = run_oracles(world, names=["conservation"])
        assert len(violations) == 1
        violation = violations[0]
        assert violation.oracle == "conservation"
        assert violation.subject == f"link:{link.a.node_id}~{link.b.node_id}"
        assert "sent" in violation.detail and "delivered" in violation.detail


class TestRegistry:
    def test_all_expected_oracles_registered(self):
        from repro.simtest import ORACLES

        assert {
            "hash_chain", "read_proof", "convergence",
            "fib_glookup", "conservation", "storage_round_trip",
        } <= set(ORACLES)

    def test_run_oracles_is_sorted_and_selectable(self, clean_world):
        from repro.simtest import ORACLES, Violation, oracle

        calls = []
        try:
            @oracle("zz_probe")
            def probe(world):
                calls.append("zz_probe")
                return [Violation("zz_probe", "x", "fired")]

            violations = run_oracles(clean_world)
            assert calls == ["zz_probe"]  # ran exactly once, last in order
            assert str(violations[-1]) == "zz_probe: x: fired"
        finally:
            ORACLES.pop("zz_probe", None)
