"""Nested-span self-time arithmetic and wrapper installation."""

import sys
import types

import pytest

from perf import trace


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def tracer(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(trace.time, "perf_counter", clock)
    tracer = trace.Tracer(keep_spans=True)
    tracer.recording = True
    tracer.clock = clock
    tracer.resume()
    return tracer


def test_self_time_is_duration_minus_child_spans(tracer):
    clock = tracer.clock

    def leaf():
        clock.now += 2.0

    leaf = tracer.traced("leaf", leaf)

    def middle():
        clock.now += 1.0
        leaf()
        clock.now += 1.0
        leaf()

    middle = tracer.traced("middle", middle)

    def outer():
        clock.now += 0.5
        middle()
        clock.now += 0.5

    tracer.traced("outer", outer)()
    totals = tracer.pause()
    # (calls, self, inclusive, longest, size)
    assert totals["leaf"][:4] == (2, 4.0, 4.0, 2.0)
    assert totals["middle"][:3] == (1, 2.0, 6.0)
    assert totals["outer"][:3] == (1, 1.0, 7.0)
    # only the root span counts toward covered time
    assert totals["<root>"][1] == 7.0
    parents = {name: parent for name, _, _, parent, _ in tracer.spans}
    assert parents == {"leaf": "middle", "middle": "outer", "outer": None}


def test_same_name_nesting_does_not_double_count(tracer):
    clock = tracer.clock

    def inner():
        clock.now += 3.0

    inner = tracer.traced("transport.send", inner)

    def outer():
        clock.now += 1.0
        inner()

    tracer.traced("transport.send", outer)()
    totals = tracer.pause()
    assert totals["transport.send"][0] == 2
    assert totals["transport.send"][1] == 4.0


def test_size_counter_and_exceptions(tracer):
    encode = tracer.traced("encode", lambda value: b"x" * value, size_of=len)
    encode(3)
    encode(5)

    def boom():
        tracer.clock.now += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.traced("boom", boom)()
    totals = tracer.pause()
    assert totals["encode"][4] == 8
    assert totals["boom"][:2] == (1, 1.0)
    assert tracer._stack == []


def test_generator_segments_are_spans_and_waits_are_not(tracer):
    clock = tracer.clock

    def client_op(x):
        clock.now += 1.0          # segment 1
        got = yield "wait"
        clock.now += 2.0          # segment 2
        return x + got

    op = tracer.traced_generator("client.write", client_op)
    running = op(10)
    assert next(running) == "wait"
    clock.now += 100.0            # waiting on the network: no span
    with pytest.raises(StopIteration) as stop:
        running.send(5)
    assert stop.value.value == 15
    totals = tracer.pause()
    assert totals["client.write"][:2] == (2, 3.0)
    assert totals["client.write.whole"][2] == 103.0


def test_generator_forwards_thrown_errors(tracer):
    def client_op():
        try:
            yield "wait"
        except KeyError:
            return "recovered"

    running = tracer.traced_generator("client.read", client_op)()
    next(running)
    with pytest.raises(StopIteration) as stop:
        running.throw(KeyError("timeout"))
    assert stop.value.value == "recovered"


def test_paused_tracer_records_nothing(tracer):
    tracer.pause()
    fn = tracer.traced("quiet", lambda: 1)
    assert fn() == 1
    tracer.resume()
    assert "quiet" not in tracer.pause()


def test_callbacks_are_named_after_their_owner(tracer):
    from repro.runtime.context import AsyncioContext

    class Scheduler:
        def __init__(self):
            self.queue = []

        def schedule(self, delay, fn, *args):
            self.queue.append((fn, args))

    Scheduler.schedule = tracer._traced_schedule(Scheduler.__dict__["schedule"])
    ctx = AsyncioContext()
    try:
        future = ctx.future()
        scheduler = Scheduler()
        scheduler.schedule(0.0, future.resolve, 7)
        fn, args = scheduler.queue[0]
        fn(*args)
    finally:
        ctx.loop.close()
    totals = tracer.pause()
    assert totals["runtime.process"][0] == 1   # Future lives in runtime.context


def test_module_aliases_are_rebound_and_restored():
    import repro.encoding as encoding

    alias_module = types.ModuleType("repro._perf_alias_probe")
    alias_module.encode = encoding.encode          # from repro.encoding import encode
    sys.modules[alias_module.__name__] = alias_module
    original = encoding.encode
    tracer = trace.Tracer()
    try:
        tracer.wrap_function(encoding, "encode", "encoding.encode", size_of=len)
        assert encoding.encode is not original
        assert alias_module.encode is encoding.encode
        tracer.recording = True
        tracer.resume()
        alias_module.encode([1, b"two"])
        assert tracer.pause()["encoding.encode"][0] == 1
    finally:
        tracer.uninstall()
        del sys.modules[alias_module.__name__]
    assert encoding.encode is original and alias_module.encode is original


def test_install_and_uninstall_leave_the_program_untouched():
    from repro.crypto.keys import SigningKey

    before = SigningKey.__dict__["sign"]
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert SigningKey.__dict__["sign"] is not before
        key = SigningKey.from_seed(b"perf-test")
        tracer.recording = True
        tracer.resume()
        signature = key.sign(b"message")
        assert key.public.verify(b"message", signature)
        totals = tracer.pause()
        assert totals["crypto.sign"][0] == totals["counter:crypto.sign"][0] == 1
        assert totals["crypto.verify"][0] == 1
    finally:
        tracer.uninstall()
    assert SigningKey.__dict__["sign"] is before
