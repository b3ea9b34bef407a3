"""Paged files: reservation of page 0, durable extension, pin-aware
allocation."""

# pagefile-layer unit tests: pin/unpin pairing is the behaviour under
# test, exercised deliberately without the pinned() wrapper
# lint: disable=R002,R011

import pytest

from repro.errors import PageError
from repro.storage import PageFile, SimulatedDisk


def make_file():
    return PageFile("f", SimulatedDisk("f", 256))


def test_page_zero_reserved():
    file = make_file()
    assert file.allocate() == 1
    with pytest.raises(PageError):
        file.pin(0)
    meta = file.pin_meta()
    assert meta.page_no == 0
    file.unpin(meta)


def test_extension_reserves_slot_durably():
    file = make_file()
    page = file.allocate()
    # the zero page was written synchronously at allocation time
    assert file.disk.n_pages == page + 1
    assert file.disk.durable_image(page) == bytes(256)


def test_allocate_prefers_freelist():
    file = make_file()
    a = file.allocate()
    file.free(a)
    assert file.allocate() == a


def test_deferred_free_needs_drain():
    file = make_file()
    a = file.allocate()
    file.free_after_sync(a)
    assert file.allocate() != a
    file.freelist.drain_after_sync()
    assert file.allocate() == a


def test_pinned_page_not_recycled():
    file = make_file()
    a = file.allocate()
    buf = file.pin(a)
    file.free(a)
    assert file.allocate() != a     # skipped while pinned
    file.unpin(buf)
    assert file.allocate() == a


def test_dirty_pages_flow_to_dirty_batch():
    file = make_file()
    a = file.allocate()
    buf = file.pin(a)
    buf.data[0] = 0x42
    file.mark_dirty(buf)
    file.unpin(buf)
    assert a in file.pool.dirty_batch()


def test_n_pages_tracks_in_memory_extensions():
    file = make_file()
    for _ in range(5):
        file.allocate()
    assert file.n_pages == 6
