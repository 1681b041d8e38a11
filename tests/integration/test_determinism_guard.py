"""Determinism guard: the transport refactor must not move a single
byte of the simulator's pinned reference traces.

Everything below the dispatch plane went transport-neutral (runtime
contexts, transports, peer handles), and any accidental change there —
an extra RNG draw, a reordered schedule call, a different PDU size —
shows up as a different trace hash.  These pins are regenerated only
when a PR *intentionally* changes simulation behavior, and that must be
a visible, reviewed diff.
"""

from repro.naming import GdpName
from repro.routing.pdu import Pdu
from repro.sim.net import Node, SimNetwork
from repro.simtest import run_episode

#: (seed, profile, episode-passes, trace sha256) — the reference
#: episodes; ``dht_root`` is the default profile on the DHT-backed global
#: tier, and the ``dht_churn`` pins cover crash windows on it.  The
#: ``commit`` pin (seed 5010: drops, tampers and replays over racing
#: CAS submitters) and the ``crash_bias`` pin (seed 5: crashes and
#: partitions) make all four simtest profiles part of this gate.  In
#: seed 42 a tampered ``sync_fetch_batch`` reply offers s0 a second
#: record at seqno 1 that no heartbeat attests.  Anti-entropy refuses it
#: (s0's ``server.sync.refused`` is 1), so it never spreads: the later
#: sync rounds that used to carry it to s1 and s2 are gone, and reads of
#: seqno 1 that failed on the branch now succeed — 144 fewer trace
#: events than when sync stored whatever parsed, and one SSW replica
#: set with no branch for the strict oracles to flag.  Since a replica
#: opens every sibling reply with the one verifier, that tampered reply
#: no longer reaches admission at all: its signature fails, s0 counts it
#: in ``server.replies_refused`` (not ``server.sync.refused``) and the
#: batch takes the failed-reply path, so the round and its follow-ups
#: differ — 161 fewer trace events, same outcome.
#:
#: Every write travels as a run: an episode's one-record append is an
#: ``append_batch`` (10 B more on the wire than ``append`` was) and its
#: sibling copy a ``replicate_batch`` (9 B more), and a push is the run
#: itself, with no server-built position proof (≈ 330 B less).  Episodes
#: append one record at a time, so pushes per run stay one and every pin
#: keeps its event count and outcome; only PDU sizes and the timestamps
#: they shift move (and, in ``dht_churn`` 13, three push/request pairs
#: that now land in the other order).
#:
#: Every read is a ``read_range``: a point read asks for ``first`` and
#: ``last`` (15 B more than ``read``) and its reply wraps the position
#: proof in a range proof (36 B more); a tip read omits both bounds (4 B
#: more than ``latest``) and its reply drops the heartbeat the proof
#: already carries (≈ 165 B less); an empty capsule answers
#: ``records: []`` (2 B more than ``empty``) and a read past the tip is
#: refused as such (4 B less of error text).  Every pin keeps its event
#: sequence and outcome; only PDU sizes and the timestamps they shift move.
#:
#: Every ``host`` op carries the owner-signed placement instead of a
#: sibling list: 179 B more per ``host`` request (one per replica at
#: set-up).  Every pin keeps its event sequence and outcome; only those
#: requests' sizes and the timestamps they shift move.
#:
#: A DHT record is only its value and its expiry: each record is
#: smaller on the wire by its principal and version, and an unregister
#: sends no STORE.  The DHT nodes are not traced, so in the two
#: ``dht_churn`` pins only the timestamps of events after the first DHT
#: resolution shift (by under 4 µs); every event, its order and size,
#: and both outcomes are unchanged.  The ``default`` and ``dht_root``
#: pins do not move.
REFERENCE_EPISODES = [
    (7, "default", True,
     "b8678bc28c3ab25eb38e9b52f5862768c6f429c14db60996ef1bf15f9c5342d4"),
    (42, "default", True,
     "f02875fb8188ba86b1db6e016f17f240b7bd1e6e6c1a7bdbb3c37a69c2bbd8bb"),
    (6, "dht_churn", True,
     "de06bc5280f381b1205f40c1c91ade84fb425d0babe0ca40ad667ad8b470b067"),
    (13, "dht_churn", True,
     "457dffec5fda7f919789901e2e877aba986290dbe896c8a0ca3f2994173bbd00"),
    (4, "dht_root", True,
     "09ad55c29b9041e861535e70f4123fe3f12ac761c9cffd217067d1b3a368a721"),
    (5010, "commit", True,
     "2b54ac113bfc61c22220f680172995bb1ecf3bb89b0237eaa44952126ac466b2"),
    (5, "crash_bias", True,
     "fb1c2beb338ea2796c08da1fea4bf26458f8c307f5143520a43a75f4c38600fb"),
]


def reference_episode(seed: int, profile: str):
    if profile == "dht_root":
        return run_episode(seed, dht_root=True)
    return run_episode(seed, profile=profile)


class TestReferenceTraces:
    def test_reference_seeds_are_byte_identical(self):
        for seed, profile, expect_ok, expect_sha in REFERENCE_EPISODES:
            result = reference_episode(seed, profile)
            assert result.ok is expect_ok, (
                f"seed {seed} ({profile}): episode outcome flipped "
                f"(ok={result.ok}, expected {expect_ok})"
            )
            assert result.trace_sha256 == expect_sha, (
                f"seed {seed} ({profile}): trace diverged from the pinned "
                f"reference ({result.trace_sha256} != {expect_sha}) — the change "
                "altered simulation behavior; if intentional, update "
                "REFERENCE_EPISODES in the same PR"
            )

    def test_repeated_runs_identical(self):
        first = run_episode(7)
        second = run_episode(7)
        assert first.trace_sha256 == second.trace_sha256


class _Echo(Node):
    """Feeds arriving PDUs into its transport (recording them)."""

    def __init__(self, network, node_id):
        super().__init__(network, node_id)
        self.inbox = []
        self.transport = network.transport_for(self).bind(
            lambda pdu, peer: self.inbox.append(pdu)
        )

    def receive(self, message, sender, link):
        self.transport.deliver(message, sender)


class TestNoNewRngDraws:
    def test_loss_free_exchange_draws_nothing(self):
        """SimTransport must not consume network RNG on a loss-free
        link: loss draws are the only legitimate consumer down there,
        and they only happen when loss > 0."""
        net = SimNetwork(seed=1234)
        a = _Echo(net, "a")
        b = _Echo(net, "b")
        net.connect(a, b, latency=0.001, bandwidth=1e6, loss=0.0)
        state_before = net.rng.getstate()
        src, dst = GdpName(b"\x01" * 32), GdpName(b"\x02" * 32)
        for i in range(25):
            a.transport.send(b, Pdu(src, dst, "data", {"i": i}))
            b.transport.send(a, Pdu(dst, src, "resp", {"i": i}))
        net.sim.run()
        assert len(a.inbox) == len(b.inbox) == 25
        assert net.rng.getstate() == state_before

    def test_lossy_link_still_draws(self):
        """Sanity check the guard itself: with loss > 0 the RNG *is*
        consumed, so the loss-free assertion above has teeth."""
        net = SimNetwork(seed=1234)
        a = _Echo(net, "a")
        b = _Echo(net, "b")
        net.connect(a, b, latency=0.001, bandwidth=1e6, loss=0.1)
        state_before = net.rng.getstate()
        src, dst = GdpName(b"\x01" * 32), GdpName(b"\x02" * 32)
        for i in range(10):
            a.transport.send(b, Pdu(src, dst, "data", {"i": i}))
        net.sim.run()
        assert net.rng.getstate() != state_before
