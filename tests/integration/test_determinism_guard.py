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
#: tier, and the ``dht_churn`` pins cover crash windows on it.  In
#: seed 42 a tampered ``sync_fetch_batch`` reply offers s0 a second
#: record at seqno 1 that no heartbeat attests.  Anti-entropy refuses it
#: (s0's ``server.sync.refused`` is 1), so it never spreads: the later
#: sync rounds that used to carry it to s1 and s2 are gone, and reads of
#: seqno 1 that failed on the branch now succeed — 144 fewer trace
#: events than when sync stored whatever parsed, and one SSW replica
#: set with no branch for the strict oracles to flag.
REFERENCE_EPISODES = [
    (7, "default", True,
     "ed2b6dfa721ba77dd75fe44e02b6d505d838c8ee9b7c1bff732e30c3546e9ab7"),
    (42, "default", True,
     "e1b6a2a90ffd15d0aa899b2354e96cdd54adf8181a862c819d5ca43872cf2bea"),
    (6, "dht_churn", True,
     "12a2cbaa7e8681e8adf9d4390b912c25f582ef8168575d75c9c63599e7a23ab3"),
    (13, "dht_churn", True,
     "7c32dfa59738f36701cc503268c70a51edfa2faa9fcdc5c9e8fba3c64169bd95"),
    (4, "dht_root", True,
     "a01caa3fd925e4729ce228a6e1d8b5677c196b2545cef0521a4a595dbdd48022"),
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
