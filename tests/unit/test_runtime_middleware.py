"""Middleware pipelines: ordering, verdicts, fault middlewares."""

import random

import pytest

from repro.encoding import Encoded, encode
from repro.errors import SecurityError
from repro.naming.names import GdpName
from repro.routing.pdu import Pdu, T_DATA
from repro.runtime.faults import DelayFaults, DropFaults, TamperFaults
from repro.runtime.middleware import (
    DROP,
    Delay,
    DeliveryMiddleware,
    DeliveryPipeline,
    NodeMiddleware,
    NodePipeline,
)
from repro.sim.net import SimNetwork


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

    def test_tamper_replaces_carriers_it_walks_with_their_values(self):
        """Same walk and RNG draws as over the plain payload, and no
        carrier's bytes survive on the walked path."""
        def payload(carry):
            body = {"ok": True, "records": [{"payload": b"abc", "seqno": 1}]}
            if carry:
                body["records"][0] = Encoded(encode(body["records"][0]), body["records"][0])
                body = Encoded(encode(body), body)
            return {"auth": {"mac": b"\x01" * 8}, "body": body}

        net = SimNetwork(seed=1)
        plain, carried = make_pdu(payload(False)), make_pdu(payload(True))
        for pdu in (plain, carried):
            TamperFaults(net, rate=1.0, rng=random.Random(7))._tamper(pdu)
        assert not isinstance(carried.payload["body"], Encoded)
        assert not isinstance(carried.payload["body"]["records"][0], Encoded)
        assert carried.payload == plain.payload != payload(False)
        assert carried.payload_bytes == encode(plain.payload)

    def test_tampered_signed_reply_carrying_bytes_is_refused(self, mini_gdp):
        """In the simulator a server's reply carries its body's bytes; a
        tampered one is still refused by the client."""
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
        assert tampered and not isinstance(tampered[-1].payload["body"], Encoded)

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
