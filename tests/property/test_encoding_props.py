"""Property tests: the canonical encoding is a total injective
round-trippable function on its value domain."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import encoding

# The wire value domain: None/bool/int/bytes/str, lists, str-keyed dicts.
wire_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=8), children, max_size=6),
    max_leaves=25,
)


class TestEncodingProperties:
    @given(wire_values)
    @settings(max_examples=300)
    def test_roundtrip(self, value):
        assert encoding.decode(encoding.encode(value)) == value

    @given(wire_values, wire_values)
    @settings(max_examples=300)
    def test_injective(self, a, b):
        if encoding.encode(a) == encoding.encode(b):
            assert a == b

    @given(wire_values)
    @settings(max_examples=200)
    def test_deterministic(self, value):
        assert encoding.encode(value) == encoding.encode(value)

    @given(st.binary(max_size=80))
    @settings(max_examples=300)
    def test_decode_total(self, garbage):
        """decode either returns a value that re-encodes to the exact
        input, or raises EncodingError — never anything else."""
        from repro.errors import EncodingError

        try:
            value = encoding.decode(garbage)
        except EncodingError:
            return
        assert encoding.encode(value) == garbage

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=200)
    def test_uvarint_roundtrip(self, value):
        data = encoding.encode_uvarint(value)
        decoded, end = encoding.decode_uvarint(data)
        assert decoded == value and end == len(data)

    @given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=8))
    @settings(max_examples=150)
    def test_dict_insertion_order_irrelevant(self, mapping):
        items = list(mapping.items())
        forward = dict(items)
        backward = dict(reversed(items))
        assert encoding.encode(forward) == encoding.encode(backward)


def _carried(value, rng):
    """*value* with some of its parts, itself included, swapped for
    :class:`encoding.Encoded` carriers (built with their value or not)."""
    if isinstance(value, list):
        value = [_carried(item, rng) for item in value]
    elif isinstance(value, dict):
        value = {key: _carried(item, rng) for key, item in value.items()}
    if rng.random() < 0.5:
        return value
    data = encoding.encode(value)
    return encoding.Encoded(data, value) if rng.random() < 0.5 else encoding.Encoded(data)


def _map(*encoded: bytes) -> bytes:
    inner = b"".join(encoded)
    return b"D" + encoding.encode_uvarint(len(inner)) + inner


class TestCarrierProperties:
    @given(wire_values, st.randoms(use_true_random=False))
    @settings(max_examples=300)
    def test_splicing_a_carrier_encodes_as_walking_its_value(self, value, rng):
        carried = _carried(value, rng)
        assert encoding.encode(carried) == encoding.encode(value)
        assert carried == value

    @given(st.dictionaries(st.text(max_size=8), wire_values, min_size=1, max_size=6),
           wire_values)
    @settings(max_examples=200)
    def test_a_carrier_has_no_write_surface(self, mapping, item):
        data = encoding.encode(mapping)
        carried = encoding.Encoded(data)
        with pytest.raises(TypeError):
            carried[sorted(mapping)[0]] = item
        assert carried.data == data and encoding.encode(carried) == data

    @given(st.lists(wire_values, max_size=4), st.lists(wire_values, max_size=4))
    @settings(max_examples=200)
    def test_extend_list_splices_encoded_items(self, head, extra):
        spliced = encoding.extend_list(
            encoding.encode(head), *map(encoding.encode, extra)
        )
        assert spliced == encoding.encode(head + extra)

    @given(st.dictionaries(st.text(max_size=8), wire_values, max_size=6), st.text(max_size=8))
    @settings(max_examples=300)
    def test_a_carried_field_decodes_as_a_full_decode(self, mapping, key):
        data = encoding.encode(mapping)
        full = encoding.decode(data)
        carried = encoding.decode(data, carry=key)
        assert carried.keys() == full.keys()
        for name, value in carried.items():
            if name == key:
                assert isinstance(value, encoding.Encoded) and value.undecoded
                assert value.data == encoding.encode(full[name])
                assert value.value == full[name]
            else:
                assert value == full[name]
        assert encoding.encode(carried) == data

    @given(wire_values, st.booleans())
    @settings(max_examples=300)
    def test_bad_bytes_inside_a_carried_field_are_refused_when_used(self, value, cut):
        """Framing is checked when the field is carried; truncated or
        non-canonical bytes inside it only when it is first used."""
        from repro.errors import EncodingError

        inner = encoding.encode(value)
        # a list whose last item lost a byte, or that starts with a 0
        # encoded non-minimally
        inner = inner[:-1] if cut else b"I\x01\x00" + inner
        field = b"L" + encoding.encode_uvarint(len(inner)) + inner
        data = _map(encoding.encode("body"), field)
        carried = encoding.decode(data, carry="body")["body"]
        assert carried.data == field
        with pytest.raises(EncodingError):
            carried.value
        with pytest.raises(EncodingError):
            encoding.decode(data)
        with pytest.raises(EncodingError):  # the carried field's own framing
            encoding.decode(_map(encoding.encode("body"), field[:-1]), carry="body")
