"""Middleware pipelines: ordering, verdicts, fault middlewares."""

import random

import pytest

from repro.encoding import Encoded
from repro.errors import SecurityError
from repro.naming.names import GdpName
from repro.routing.pdu import Pdu, T_DATA
from repro.runtime.faults import DelayFaults, DropFaults, ReplayFaults, TamperFaults
from repro.runtime.middleware import (
    DROP,
    Delay,
    DeliveryMiddleware,
    DeliveryPipeline,
    NodeMiddleware,
    NodePipeline,
)
from repro.sim.net import Node, SimNetwork


def make_pdu(payload=None):
    src = GdpName(bytes(31) + b"\x01")
    dst = GdpName(bytes(31) + b"\x02")
    return Pdu(src, dst, T_DATA, payload if payload is not None else {"x": 1})


class Recorder(NodeMiddleware):
    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def inbound(self, node, pdu, sender):
        self.log.append(("in", self.tag))
        return None

    def outbound(self, node, pdu):
        self.log.append(("out", self.tag))
        return None


class TestNodePipeline:
    def test_runs_in_installation_order(self):
        log = []
        pipeline = NodePipeline()
        pipeline.use(Recorder("a", log))
        pipeline.use(Recorder("b", log))
        pdu = make_pdu()
        assert pipeline.run_inbound(None, pdu, None) is pdu
        assert pipeline.run_outbound(None, pdu) is pdu
        assert log == [("in", "a"), ("in", "b"), ("out", "a"), ("out", "b")]

    def test_drop_short_circuits(self):
        log = []

        class Dropper(NodeMiddleware):
            def inbound(self, node, pdu, sender):
                return DROP

        pipeline = NodePipeline([Dropper(), Recorder("after", log)])
        assert pipeline.run_inbound(None, make_pdu(), None) is None
        assert log == []

    def test_replacement_flows_to_next_stage(self):
        replacement = make_pdu({"replaced": True})
        seen = []

        class Replacer(NodeMiddleware):
            def inbound(self, node, pdu, sender):
                return replacement

        class Witness(NodeMiddleware):
            def inbound(self, node, pdu, sender):
                seen.append(pdu)
                return None

        pipeline = NodePipeline([Replacer(), Witness()])
        assert pipeline.run_inbound(None, make_pdu(), None) is replacement
        assert seen == [replacement]

    def test_remove(self):
        log = []
        pipeline = NodePipeline()
        middleware = pipeline.use(Recorder("a", log))
        pipeline.remove(middleware)
        assert not pipeline
        assert len(pipeline) == 0


class TestDeliveryPipeline:
    def test_empty_pipeline_is_falsy(self):
        assert not DeliveryPipeline()

    def test_pass_and_delay_verdicts(self):
        class Delayer(DeliveryMiddleware):
            def on_deliver(self, link, sender, receiver, message, size):
                return Delay(0.25)

        pipeline = DeliveryPipeline()
        pipeline.use(Delayer())
        pipeline.use(Delayer())
        message, extra = pipeline.run(None, None, None, "m", 10)
        assert message == "m"
        assert extra == 0.5

    def test_drop_verdict(self):
        class Dropper(DeliveryMiddleware):
            def on_deliver(self, link, sender, receiver, message, size):
                return DROP

        pipeline = DeliveryPipeline()
        pipeline.use(Dropper())
        assert pipeline.run(None, None, None, "m", 10) is None


class TestFaultMiddlewares:
    def test_drop_faults_counts_and_drops(self):
        net = SimNetwork(seed=1)
        fault = DropFaults(net, rate=1.0, rng=random.Random(7)).install()
        assert net.delivery.run(None, None, None, make_pdu(), 1) is None
        assert fault.count == 1
        fault.uninstall()
        assert net.delivery.run(None, None, None, make_pdu(), 1) is not None

    def test_rate_zero_never_draws(self):
        net = SimNetwork(seed=1)
        rng = random.Random(7)
        before = rng.getstate()
        DropFaults(net, rate=0.0, rng=rng).install()
        net.delivery.run(None, None, None, make_pdu(), 1)
        assert rng.getstate() == before

    def test_match_predicate_gates_faults(self):
        net = SimNetwork(seed=1)
        fault = DropFaults(
            net,
            rate=1.0,
            rng=random.Random(7),
            match=lambda pdu: pdu.payload.get("target", False),
        ).install()
        assert net.delivery.run(None, None, None, make_pdu(), 1) is not None
        hit = make_pdu({"target": True})
        assert net.delivery.run(None, None, None, hit, 1) is None
        assert fault.count == 1

    def test_non_pdu_messages_pass_through(self):
        net = SimNetwork(seed=1)
        DropFaults(net, rate=1.0, rng=random.Random(7)).install()
        assert net.delivery.run(None, None, None, {"raw": 1}, 1) is not None

    def test_tamper_faults_corrupt_payload_bytes(self):
        net = SimNetwork(seed=1)
        fault = TamperFaults(net, rate=1.0, rng=random.Random(7)).install()
        pdu = make_pdu({"blob": b"hello"})
        processed = net.delivery.run(None, None, None, pdu, 1)
        assert processed is not None
        assert fault.count == 1
        assert pdu.payload["blob"] != b"hello"

    def test_tamper_on_one_link_leaves_the_other_copies_alone(self):
        """Each link ships its own bytes: a tamper hit on the link to one
        sibling changes only what that sibling receives, not the other
        sibling's copy nor the sender's run."""
        net = SimNetwork(seed=1)

        class Sink(Node):
            def __init__(self, node_id):
                super().__init__(net, node_id)
                self.inbox = []

            def receive(self, message, sender, link):
                self.inbox.append(message)

        def nested_run():
            return {"op": "replicate_batch", "records": [{"seqno": 1, "payload": bytes(8)}]}

        sender, first, second = Sink("sender"), Sink("first"), Sink("second")
        for sink in (first, second):
            net.connect(sender, sink, latency=0.001, bandwidth=1e6)
        transport = net.transport_for(sender)
        run = nested_run()
        pdus = {sink: make_pdu(dict(run)) for sink in (first, second)}
        TamperFaults(
            net, rate=1.0, rng=random.Random(7), match=lambda pdu: pdu.corr_id == pdus[first].corr_id
        ).install()
        for sink, pdu in pdus.items():
            transport.send(sink, pdu)
        net.sim.run()
        assert first.inbox[0].payload != nested_run()
        assert second.inbox[0].payload == nested_run()
        assert run == nested_run()

    def test_tampered_signed_reply_carrying_bytes_is_refused(self, mini_gdp):
        """In the simulator a server's reply carries its body's bytes; a
        tampered one reaches the client as the flipped bytes, never
        decoded, and is refused by the check over them."""
        g = mini_gdp
        tampered = []

        def carried_reply(pdu):
            body = pdu.payload.get("body") if isinstance(pdu.payload, dict) else None
            hit = pdu.dst == g.reader_client.name and isinstance(body, Encoded)
            tampered.extend([pdu] if hit else [])
            return hit

        def scenario():
            yield from g.bootstrap()
            metadata = yield from g.place()
            writer = g.writer_client.open_writer(metadata, g.writer_key)
            yield from writer.append(b"carried", acks="all")
            TamperFaults(g.net, rate=1.0, rng=random.Random(3), match=carried_reply).install()
            with pytest.raises(SecurityError):
                yield from g.reader_client.read(metadata.name, 1)
            return True

        assert g.run(scenario())
        body = tampered[-1].payload["body"]
        assert isinstance(body, Encoded) and body.undecoded

    def test_replay_redelivers_a_fresh_copy_of_the_bytes(self):
        """A replayed PDU is decoded afresh from the bytes that crossed,
        whatever the first receiver did with its decoded payload."""
        net = SimNetwork(seed=1)
        received = []

        class Sink:
            def receive(self, message, sender, link):
                received.append(message)

        ReplayFaults(net, seconds=0.5, rate=1.0, rng=random.Random(7)).install()
        pdu = make_pdu({"x": 1}).shipped()
        assert net.delivery.run(None, None, Sink(), pdu, 1) is not None
        pdu.payload["x"] = 2  # the on-time receiver changes its copy
        net.sim.run()
        assert received[0] is not pdu and received[0].payload == {"x": 1}

    def test_delay_faults_redeliver_late(self):
        net = SimNetwork(seed=1)
        received = []

        class Sink:
            def receive(self, message, sender, link):
                received.append((net.sim.now, message))

        sink = Sink()
        DelayFaults(net, seconds=0.5, rate=1.0, rng=random.Random(7)).install()
        pdu = make_pdu()
        # The on-time delivery is suppressed...
        assert net.delivery.run(None, None, sink, pdu, 1) is None
        assert received == []
        # ...and the late one arrives at +0.5s.
        net.sim.run()
        assert received == [(0.5, pdu)]
