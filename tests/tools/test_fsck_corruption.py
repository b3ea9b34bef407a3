"""fsck against deliberately corrupted durable state.

Each test takes a healthy synced tree, injects one specific corruption
through the buffer layer (so buffer and disk agree), and asserts fsck
classifies it — without mutating the tree."""

# corruption injection writes buffers behind the commit protocol on
# purpose: that is exactly what fsck must catch (R012 is the per-path
# form of the same dirty discipline)
# lint: disable=R002,R012

import pytest

from repro import TID, TREE_CLASSES, StorageEngine
from repro.constants import PAGE_LEAF
from repro.core.meta import MetaView
from repro.core.nodeview import NodeView
from repro.storage import page as P
from repro.tools.fsck import fsck_tree

from ..conftest import tid_for

PAGE = 512


@pytest.fixture
def shadow_tree():
    engine = StorageEngine.create(page_size=PAGE, seed=23)
    tree = TREE_CLASSES["shadow"].create(engine, "ix", codec="uint32")
    for i in range(300):
        tree.insert(i, tid_for(i))
        if (i + 1) % 64 == 0:
            engine.sync()
    engine.sync()
    return tree


def _meta_root(tree):
    mbuf = tree.file.pin_meta()
    try:
        return MetaView(mbuf.data, tree.page_size).root
    finally:
        tree.file.unpin(mbuf)


def _leftmost_leaf(tree):
    page_no = _meta_root(tree)
    while True:
        buf = tree.file.pin(page_no)
        try:
            view = NodeView(buf.data, tree.page_size)
            if view.is_leaf:
                return page_no
            page_no = view.child_at(0)
        finally:
            tree.file.unpin(buf)


def _corrupt(tree, page_no, mutate):
    """Apply *mutate(buf, view)* to a page and push it to disk."""
    buf = tree.file.pin(page_no)
    try:
        mutate(buf, NodeView(buf.data, tree.page_size))
        tree.file.mark_dirty(buf)
    finally:
        tree.file.unpin(buf)
    tree.engine.sync()


def _messages(report, severity=None):
    return [f.message for f in report.findings
            if severity is None or f.severity == severity]


def test_zeroed_reachable_child_is_an_error(shadow_tree):
    leaf = _leftmost_leaf(shadow_tree)

    def zero(buf, view):
        buf.data[:] = bytes(len(buf.data))

    _corrupt(shadow_tree, leaf, zero)
    report = fsck_tree(shadow_tree)
    assert report.errors >= 1
    assert any("unreadable (magic 0x0000" in m
               for m in _messages(report, "error"))


def test_out_of_order_keys_are_an_error(shadow_tree):
    leaf = _leftmost_leaf(shadow_tree)

    def swap_lines(buf, view):
        first, second = P.get_line(buf.data, 0), P.get_line(buf.data, 1)
        P.set_line(buf.data, 0, second)
        P.set_line(buf.data, 1, first)

    _corrupt(shadow_tree, leaf, swap_lines)
    report = fsck_tree(shadow_tree)
    assert any("keys out of order" in m for m in _messages(report, "error"))


def test_corrupt_meta_page_is_fatal(shadow_tree):
    mbuf = shadow_tree.file.pin_meta()
    try:
        mbuf.data[:P.HEADER_SIZE] = bytes(P.HEADER_SIZE)
        shadow_tree.file.mark_dirty(mbuf)
    finally:
        shadow_tree.file.unpin(mbuf)
    report = fsck_tree(shadow_tree)
    assert report.errors == 1
    assert any("meta page invalid" in m for m in _messages(report, "error"))


def test_duplicate_child_pointer_is_an_error(shadow_tree):
    root = _meta_root(shadow_tree)

    def duplicate_child(buf, view):
        assert not view.is_leaf and view.n_keys >= 2
        view.set_child_at(1, view.child_at(0))

    _corrupt(shadow_tree, root, duplicate_child)
    report = fsck_tree(shadow_tree, check_peers=False)
    assert any("reached twice" in m for m in _messages(report, "error"))


def test_peer_token_mismatch_is_a_warning(shadow_tree):
    leaf = _leftmost_leaf(shadow_tree)

    def skew_token(buf, view):
        view.right_peer_token = view.right_peer_token + 1

    _corrupt(shadow_tree, leaf, skew_token)
    report = fsck_tree(shadow_tree)
    assert any("peer tokens disagree on link" in m
               for m in _messages(report, "warn"))


def test_orphan_page_is_reported(shadow_tree):
    page_no = shadow_tree.file.allocate()
    buf = shadow_tree.file.pin(page_no)
    try:
        view = NodeView(buf.data, shadow_tree.page_size)
        view.init_page(PAGE_LEAF,
                       sync_token=shadow_tree.engine.sync_state.token())
        shadow_tree.file.mark_dirty(buf)
    finally:
        shadow_tree.file.unpin(buf)
    shadow_tree.engine.sync()
    report = fsck_tree(shadow_tree)
    assert page_no in report.orphans
    assert any("orphaned pages" in m for m in _messages(report, "info"))


def test_pending_reorg_backup_is_informational():
    engine = StorageEngine.create(page_size=PAGE, seed=5)
    tree = TREE_CLASSES["reorg"].create(engine, "ix", codec="uint32")
    splits = tree.splits.value
    i = 0
    while tree.splits.value == splits:
        tree.insert(i, TID(1, i % 100))
        i += 1
    report = fsck_tree(tree)
    assert report.errors == 0
    assert any("backup keys" in m for m in _messages(report, "info"))
