"""Freelist: every free waits for a completed sync, is erased there, and
only then is recycled; pinned pages wait (Section 3.3.3 / 3.6)."""

import pytest

from repro.errors import FreelistError
from repro.storage import Freelist


class Extender:
    def __init__(self, start=10):
        self.next = start

    def __call__(self):
        self.next += 1
        return self.next - 1


def make(pins=None, erased=None):
    pins = {} if pins is None else pins
    erased = [] if erased is None else erased
    return Freelist(Extender(), lambda p: pins.get(p, 0), erased.append)


# -- allocation -----------------------------------------------------------

def test_allocate_extends_when_empty():
    fl = make()
    assert fl.allocate() == 10
    assert fl.allocate() == 11
    assert fl.extended.value == 2


def test_free_recycles_only_after_a_drain():
    fl = make()
    fl.free(5)
    assert fl.allocate() == 10      # not yet: no sync has completed
    fl.drain_after_sync()
    assert fl.allocate() == 5
    assert fl.recycled.value == 1


def test_drain_erases_each_page_before_listing_it():
    """The one reuse rule: a page reaches the allocator only erased, so a
    lost new image reads back as zeros whatever range the page held."""
    erased = []
    fl = make(erased=erased)
    fl.free(5)
    fl.free(6)
    assert erased == [] and len(fl) == 0
    fl.drain_after_sync()
    assert erased == [5, 6]
    assert sorted(fl.entries()) == [5, 6]
    assert {fl.allocate(), fl.allocate()} == {5, 6}
    fl.drain_after_sync()
    assert erased == [5, 6]         # each page is erased once


def test_pinned_page_stays_deferred_until_a_later_drain():
    pins = {5: 1}
    erased = []
    fl = make(pins, erased)
    fl.free(5)
    fl.drain_after_sync()
    assert erased == [] and fl.pending == 1
    assert fl.allocate() == 10
    pins[5] = 0
    fl.drain_after_sync()
    assert erased == [5] and fl.pending == 0
    assert fl.allocate() == 5


def test_allocation_skips_a_listed_page_pinned_since():
    pins = {}
    fl = make(pins)
    fl.free(5)
    fl.drain_after_sync()
    pins[5] = 1                     # a reader followed a stale pointer
    assert fl.allocate() == 10
    pins[5] = 0
    assert fl.allocate() == 5


def test_double_free_detected():
    fl = make()
    fl.free(5)
    with pytest.raises(FreelistError):
        fl.free(5)
    fl.drain_after_sync()
    with pytest.raises(FreelistError):
        fl.free(5)
    assert fl.allocate() == 5
    fl.free(5)                      # reallocated, so free again


def test_page_zero_never_freeable():
    fl = make()
    with pytest.raises(FreelistError):
        fl.free(0)


def test_contains_covers_both_lists():
    fl = make()
    fl.free(5)
    fl.free(6)
    fl.drain_after_sync()
    fl.free(7)
    assert 5 in fl and 6 in fl and 7 in fl and 8 not in fl
    assert len(fl) == 2 and fl.pending == 1


def test_page_numbers_roundtrip_through_load():
    fl = make()
    fl.free(3)
    fl.free(4)
    fl.drain_after_sync()
    fl2 = make()
    fl2.load_entries(fl.entries())
    assert len(fl2) == 2 and 3 in fl2 and 4 in fl2
    assert {fl2.allocate(), fl2.allocate()} == {3, 4}
    assert fl2.allocate() == 10
