"""The typed op-dispatch registry (repro.runtime.dispatch)."""

import pytest

from repro.errors import CapsuleError, GdpError
from repro.runtime.dispatch import (
    dispatch_op,
    error_body,
    find_handler,
    handles,
    invalid_payload,
    on_ptype,
    op,
    op_names,
    opt,
    unknown_op,
)


class Server:
    @op("echo", text=str)
    def _op_echo(self, pdu, payload):
        return {"ok": True, "text": payload["text"]}

    @op("add", a=int, b=int, label=opt(str))
    def _op_add(self, pdu, payload):
        return {"ok": True, "sum": payload["a"] + payload["b"]}

    @op("boom")
    def _op_boom(self, pdu, payload):
        raise CapsuleError("deliberate")

    @op("bug")
    def _op_bug(self, pdu, payload):
        raise RuntimeError("a real bug")

    @on_ptype("data")
    def _on_data(self, pdu):
        return "data-handled"


class SubServer(Server):
    @op("extra")
    def _op_extra(self, pdu, payload):
        return {"ok": True, "extra": True}

    def _op_echo(self, pdu, payload):  # override body, inherit the spec
        return {"ok": True, "text": payload["text"].upper()}


class TestResolution:
    def test_find_handler(self):
        bound = find_handler(Server(), "echo")
        assert bound is not None
        assert bound.spec.name == "echo"

    def test_unregistered_name_is_none(self):
        assert find_handler(Server(), "nope") is None

    def test_ptype_space_is_separate(self):
        server = Server()
        assert find_handler(server, "data", space="ptype") is not None
        assert find_handler(server, "data") is None
        assert find_handler(server, "echo", space="ptype") is None

    def test_subclass_inherits_and_extends(self):
        sub = SubServer()
        assert find_handler(sub, "add") is not None
        assert find_handler(sub, "extra") is not None
        assert find_handler(Server(), "extra") is None

    def test_subclass_body_override_dispatches_to_override(self):
        result = dispatch_op(SubServer(), None, {"op": "echo", "text": "hi"})
        assert result == {"ok": True, "text": "HI"}

    def test_op_names(self):
        assert op_names(Server) == ["add", "boom", "bug", "echo"]
        assert op_names(SubServer) == ["add", "boom", "bug", "echo", "extra"]
        assert op_names(Server, space="ptype") == ["data"]


class TestDispatch:
    def test_happy_path(self):
        result = dispatch_op(Server(), None, {"op": "add", "a": 2, "b": 3})
        assert result == {"ok": True, "sum": 5}

    def test_unknown_op_envelope(self):
        from repro.server import DataCapsuleServer
        from repro.sim import SimNetwork

        # The full-scan sync ops are gone: a capsule server answers them
        # like any other op it never had.
        dcserver = DataCapsuleServer(SimNetwork(), "dc")
        for handler, name in [
            (Server(), "nope"),
            (dcserver, "sync_summary"),
            (dcserver, "sync_fetch"),
        ]:
            payload = {"op": name, "capsule": b"c" * 32, "digests": []}
            result = dispatch_op(handler, None, payload)
            assert result["ok"] is False
            assert result["error_kind"] == "unknown_op"
            assert f"unknown op {name!r}" in result["error"]

    def test_non_dict_payload_is_unknown_op(self):
        result = dispatch_op(Server(), None, "not a dict")
        assert result["error_kind"] == "unknown_op"

    def test_missing_required_field(self):
        result = dispatch_op(Server(), None, {"op": "echo"})
        assert result["ok"] is False
        assert result["error_kind"] == "invalid_payload"
        assert "'text'" in result["error"]

    def test_wrong_field_type(self):
        result = dispatch_op(Server(), None, {"op": "add", "a": 1, "b": "x"})
        assert result["error_kind"] == "invalid_payload"
        assert "'b'" in result["error"]

    def test_optional_field_validated_only_when_present(self):
        ok = dispatch_op(Server(), None, {"op": "add", "a": 1, "b": 2})
        assert ok["ok"] is True
        bad = dispatch_op(
            Server(), None, {"op": "add", "a": 1, "b": 2, "label": 9}
        )
        assert bad["error_kind"] == "invalid_payload"

    def test_gdp_error_becomes_handler_error_envelope(self):
        result = dispatch_op(Server(), None, {"op": "boom"})
        assert result["ok"] is False
        assert result["error_kind"] == "handler_error"
        assert result["error"] == "CapsuleError: deliberate"

    def test_non_gdp_exception_propagates(self):
        with pytest.raises(RuntimeError, match="a real bug"):
            dispatch_op(Server(), None, {"op": "bug"})


class TestEnvelopes:
    def test_unknown_op_text_matches_historical_format(self):
        assert unknown_op("read")["error"] == "unknown op 'read'"

    def test_invalid_payload(self):
        body = invalid_payload("read", "missing required field 'seqno'")
        assert body["ok"] is False
        assert "read" in body["error"]

    def test_error_body(self):
        body = error_body(GdpError("nope"))
        assert body == {
            "ok": False,
            "error": "GdpError: nope",
            "error_kind": "handler_error",
        }


class TestMeta:
    def test_meta_rides_along(self):
        class Gateway:
            @handles("http", "GET thing", meta={"arity": 2})
            def _get(self, *a):
                return "got"

        bound = find_handler(Gateway(), "GET thing", space="http")
        assert bound.spec.meta == {"arity": 2}
