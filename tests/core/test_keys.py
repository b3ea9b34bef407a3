"""Key codecs, TIDs, key bounds, duplicate handling."""

import pytest
from hypothesis import given, strategies as st

from repro.core.keys import (
    CODECS,
    FULL_BOUNDS,
    MIN_KEY,
    TID,
    Int64Codec,
    KeyBounds,
    StringCodec,
    UInt32Codec,
    make_unique,
    split_unique,
)


# -- codecs are order-preserving ------------------------------------------

@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_uint32_order_preserving(a, b):
    codec = UInt32Codec()
    assert (codec.encode(a) < codec.encode(b)) == (a < b)


@given(st.integers(-2**63, 2**63 - 1), st.integers(-2**63, 2**63 - 1))
def test_int64_order_preserving(a, b):
    codec = Int64Codec()
    assert (codec.encode(a) < codec.encode(b)) == (a < b)


@given(st.integers(-2**63, 2**63 - 1))
def test_int64_roundtrip(value):
    codec = Int64Codec()
    assert codec.decode(codec.encode(value)) == value


@given(st.text(max_size=50))
def test_string_roundtrip(value):
    codec = StringCodec()
    assert codec.decode(codec.encode(value)) == value


def test_bytes_codec_rejects_non_bytes():
    with pytest.raises(TypeError):
        CODECS["bytes"].encode(42)


def test_codec_registry_names():
    assert set(CODECS) == {"bytes", "uint32", "int64", "str"}
    for name, codec in CODECS.items():
        assert codec.name == name


# -- TIDs -----------------------------------------------------------------

def test_tid_pack_unpack():
    tid = TID(0x12345678, 0x9ABC)
    assert TID.unpack(tid.pack()) == tid


def test_tid_ordering():
    assert TID(1, 5) < TID(2, 0) < TID(2, 1)


# -- duplicate-key rewrite (Section 2) -------------------------------------

def test_make_unique_roundtrip():
    key = UInt32Codec().encode(7)
    composite = make_unique(key, 42)
    value, oid = split_unique(composite)
    assert value == key
    assert oid == 42


def test_make_unique_sorts_by_value_then_oid():
    codec = UInt32Codec()
    a = make_unique(codec.encode(5), 100)
    b = make_unique(codec.encode(5), 200)
    c = make_unique(codec.encode(6), 0)
    assert a < b < c


def test_split_unique_rejects_short_input():
    with pytest.raises(ValueError):
        split_unique(b"short")


# -- bounds ---------------------------------------------------------------

def test_full_bounds_contains_everything():
    assert FULL_BOUNDS.contains(MIN_KEY)
    assert FULL_BOUNDS.contains(b"\xff" * 8)


def test_bounds_half_open():
    bounds = KeyBounds(b"\x10", b"\x20")
    assert bounds.contains(b"\x10")
    assert not bounds.contains(b"\x20")
    assert not bounds.contains(b"\x0f")


def test_child_bounds_clip_to_parent():
    parent = KeyBounds(b"\x10", b"\x30")
    child = parent.child(b"\x05", b"\x40")
    assert child == KeyBounds(b"\x10", b"\x30")
    child2 = parent.child(b"\x15", b"\x25")
    assert child2 == KeyBounds(b"\x15", b"\x25")


def test_child_bounds_infinite_hi():
    parent = KeyBounds(b"\x10", None)
    assert parent.child(b"\x15", None) == KeyBounds(b"\x15", None)
    assert parent.child(b"\x15", b"\x20") == KeyBounds(b"\x15", b"\x20")
