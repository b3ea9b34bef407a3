"""Page header codec and raw-page helpers."""

# header-codec unit tests mutate raw buffers with no pool in sight
# (R012 is the per-path form of the same dirty discipline)
# lint: disable=R012

import pytest

from repro.constants import (
    MAX_PAGE_SIZE,
    MIN_PAGE_SIZE,
    PAGE_INTERNAL,
    PAGE_LEAF,
    PAGE_MAGIC,
)
from repro.errors import PageCorruptError, PageError
from repro.storage import page as P


def test_header_roundtrip_all_fields():
    header = P.PageHeader(
        page_type=PAGE_INTERNAL, flags=0x05, level=3, n_keys=17,
        prev_n_keys=34, new_page=99, left_peer=7, right_peer=8,
        sync_token=0xDEADBEEF, left_peer_token=11, right_peer_token=12,
        lower=100, upper=400, backup_count=17, lsn=123456789,
    )
    buf = bytearray(512)
    P.write_header(buf, header)
    assert P.read_header(buf) == header


def test_header_size_is_64():
    assert P.HEADER_SIZE == 64


def test_new_page_is_formatted_empty():
    buf = P.new_page(256, PAGE_LEAF)
    header = P.read_header(buf)
    assert header.page_type == PAGE_LEAF
    assert header.n_keys == 0
    assert header.lower == P.HEADER_SIZE
    assert header.upper == 256
    assert P.free_space(header) == 256 - P.HEADER_SIZE


def test_read_header_rejects_bad_magic():
    with pytest.raises(PageCorruptError):
        P.read_header(bytearray(128))


def test_try_read_header_returns_none_for_zeroed():
    assert P.try_read_header(bytearray(128)) is None
    assert P.try_read_header(P.new_page(128)) is not None


def test_valid_magic_probe():
    assert not P.valid_magic(bytearray(128))
    assert P.valid_magic(P.new_page(128))
    junk = bytearray(128)
    junk[0] = 0xFF
    assert not P.valid_magic(junk)


def test_is_zeroed():
    assert P.is_zeroed(bytearray(64))
    buf = bytearray(64)
    buf[63] = 1
    assert not P.is_zeroed(buf)


def test_line_table_get_set():
    buf = P.new_page(256)
    P.set_line(buf, 0, 200)
    P.set_line(buf, 1, 180)
    assert P.get_line(buf, 0) == 200
    assert P.get_line(buf, 1) == 180
    assert P.line_offset(2) == P.HEADER_SIZE + 4


@pytest.mark.parametrize("size", [MIN_PAGE_SIZE - 1, MAX_PAGE_SIZE + 1, 0])
def test_page_size_bounds_rejected(size):
    with pytest.raises(PageError):
        P.validate_page_size(size)


@pytest.mark.parametrize("size", [MIN_PAGE_SIZE, 512, 8192, MAX_PAGE_SIZE])
def test_page_size_bounds_accepted(size):
    assert P.validate_page_size(size) == size


def test_structural_check_accepts_fresh_page():
    buf = P.new_page(256, PAGE_LEAF)
    header = P.structural_check(buf, 256)
    assert header.page_type == PAGE_LEAF


def test_structural_check_rejects_crossed_pointers():
    buf = P.new_page(256, PAGE_LEAF)
    header = P.read_header(buf)
    header.lower, header.upper = 300, 100
    P.write_header(buf, header)
    with pytest.raises(PageCorruptError):
        P.structural_check(buf, 256)


def test_structural_check_rejects_line_table_overrun():
    buf = P.new_page(256, PAGE_LEAF)
    header = P.read_header(buf)
    header.n_keys = 1000
    P.write_header(buf, header)
    with pytest.raises(PageCorruptError):
        P.structural_check(buf, 256)


def test_field_accessors_match_header_struct():
    buf = P.new_page(512, PAGE_LEAF, level=2, sync_token=77)
    assert P.get_u16(buf, P.OFF_MAGIC) == PAGE_MAGIC
    assert P.get_u16(buf, P.OFF_LEVEL) == 2
    assert P.get_u64(buf, P.OFF_SYNC_TOKEN) == 77
    P.set_u32(buf, P.OFF_NEW_PAGE, 0x12345678)
    assert P.read_header(buf).new_page == 0x12345678
    P.set_u16(buf, P.OFF_N_KEYS, 9)
    assert P.read_header(buf).n_keys == 9
