"""Index meta page: root shadowing and the freelist snapshot."""

# meta-page unit tests: raw MetaViews over bytearrays with literal
# tokens — no buffer pool, no SyncState (R012 is the per-path form
# of the same dirty discipline)
# lint: disable=R004,R012

import pytest

from repro.core.meta import MetaView
from repro.errors import PageCorruptError

PAGE = 512


def fresh_meta(kind="shadow", codec="uint32"):
    view = MetaView(bytearray(PAGE), PAGE)
    view.init_meta(kind, codec)
    return view


def test_init_and_identity_fields():
    meta = fresh_meta("reorg", "int64")
    meta.check()
    assert meta.tree_kind == "reorg"
    assert meta.codec_name == "int64"
    assert meta.root == 0
    assert meta.prev_root == 0
    assert meta.root_token == 0


def test_set_root_records_prev_and_token():
    meta = fresh_meta()
    meta.set_root(5, 0, 10)
    assert (meta.root, meta.prev_root, meta.root_token) == (5, 0, 10)
    meta.set_root(9, 5, 12)
    assert (meta.root, meta.prev_root, meta.root_token) == (9, 5, 12)


def test_height_independent_of_root():
    meta = fresh_meta()
    meta.set_root(5, 0, 10)
    meta.height = 3
    assert meta.height == 3
    assert meta.root == 5
    meta.set_root(6, 5, 11)
    assert meta.height == 3


def test_check_rejects_non_meta_page():
    view = MetaView(bytearray(PAGE), PAGE)
    with pytest.raises(PageCorruptError):
        view.check()


def test_freelist_snapshot_roundtrip():
    """The snapshot holds page numbers only: every listed page is erased,
    so no key range need survive a restart."""
    meta = fresh_meta()
    assert meta.store_freelist([3, 4, 5]) == 3
    assert meta.load_freelist() == [3, 4, 5]


def test_freelist_snapshot_truncates_to_page_capacity():
    meta = fresh_meta()
    page_nos = list(range(1, 5000))
    stored = meta.store_freelist(page_nos)
    assert 0 < stored < len(page_nos)
    assert meta.load_freelist() == page_nos[:stored]


def test_erase_freelist():
    meta = fresh_meta()
    meta.store_freelist([3])
    meta.erase_freelist()
    assert meta.load_freelist() == []
