"""Regression tests for the exception-window pin leaks the flow lint
(R011/R013) surfaced: a failure injected between a pin and its release
— in a descent, a move, an allocation, a crash-recovery repair — must
leave the buffer pool with zero outstanding pins."""

import pytest

from repro import TID, TREE_CLASSES, StorageEngine
from repro.analysis import sanitizer
from repro.analysis.sanitizer import SanitizedBufferPool, sanitized
from repro.constants import INVALID_PAGE, PAGE_LEAF
from repro.core.concurrency import set_schedule_hook
from repro.core.keys import MIN_KEY
from repro.core.nodeview import DecodedNode, NodeView
from repro.hash import ExtendibleHashIndex

from ..recovery.helpers import build_to_split, crash_keeping
from ..recovery.test_move_cycle import BEYOND, N_KEYS, tree_with_a_peer_cycle

PAGE = 512


def tid_for(i: int) -> TID:
    return TID(1 + (i >> 8), i & 0xFF)


class _FaultOnPinChild:
    """Scheduler hook that raises right after ``_descend`` pins a child
    — inside the window the exception guard has to cover."""

    def __init__(self, after: int = 0):
        self.countdown = after

    def point(self, kind, **detail):
        if kind != "pin_child":
            return
        if self.countdown == 0:
            raise RuntimeError("injected fault after child pin")
        self.countdown -= 1


@pytest.mark.parametrize("kind", sorted(TREE_CLASSES))
def test_descend_fault_releases_every_pin(kind):
    engine = StorageEngine.create(page_size=PAGE, seed=3)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    for i in range(300):
        tree.insert(i, tid_for(i))
    assert tree.height >= 2
    assert tree.file.pool.total_pins() == 0

    previous = set_schedule_hook(_FaultOnPinChild())
    try:
        with pytest.raises(RuntimeError, match="injected fault"):
            tree.lookup(0)
    finally:
        set_schedule_hook(previous)
    assert tree.file.pool.total_pins() == 0

    # the tree is still fully usable after the aborted descent
    assert tree.lookup(0) is not None
    tree.insert(10_000, tid_for(10_000))
    assert tree.lookup(10_000) is not None
    assert tree.file.pool.total_pins() == 0


@pytest.mark.parametrize("keep", ["parent", "pa"])
def test_reorg_recovery_repair_leaves_no_pins(keep):
    """The lost-child repair path (``_source_parent_entry`` and friends)
    takes extra pins on the parent and source pages; after recovery every
    one of them must be back."""
    engine, tree, committed, _, info = build_to_split("reorg")
    assert info["parent"] is not None
    crash_keeping(engine, tree, tree.file.name, {info[keep]})

    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES["reorg"].open(engine2, "ix")
    missing = [k for k in committed if tree2.lookup(k) is None]
    assert not missing
    assert tree2.file.pool.total_pins() == 0


# ---------------------------------------------------------------------------
# exception edges between a pin and its release (flow rule R011)
# ---------------------------------------------------------------------------

def _fault(*_args, **_kwargs):
    raise RuntimeError("injected fault")


class _FailingCounter:
    def inc(self, *_args, **_kwargs):
        _fault()


def small_tree(kind, n=300):
    engine = StorageEngine.create(page_size=PAGE, seed=3)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    for i in range(n):
        tree.insert(i, tid_for(i))
    engine.sync()
    return engine, tree


@pytest.mark.parametrize("kind", sorted(TREE_CLASSES))
def test_alloc_fault_releases_its_pin(kind, monkeypatch):
    """``_alloc`` pins the fresh page before formatting it: a format
    that raises must not strand the pin."""
    _, tree = small_tree(kind, n=10)
    monkeypatch.setattr(NodeView, "init_page", _fault)
    with pytest.raises(RuntimeError, match="injected fault"):
        tree._alloc(PAGE_LEAF, 0)
    assert tree.file.pool.total_pins() == 0


def test_rebuilt_spine_fault_releases_its_pins(monkeypatch):
    """``_rebuild_empty_subtree`` allocates one spine page per level; a
    failure while filling one must release it."""
    _, tree = small_tree("reorg", n=10)
    monkeypatch.setattr(NodeView, "replace_items", _fault)
    child_no, child_buf, child_view = tree._alloc(PAGE_LEAF, 0)
    try:
        with pytest.raises(RuntimeError, match="injected fault"):
            tree._rebuild_empty_subtree(child_no, child_buf, child_view,
                                        2, INVALID_PAGE, None, low=MIN_KEY)
    finally:
        tree._unpin(child_buf)
    assert tree.file.pool.total_pins() == 0


def _plant_new_page(tree, key):
    """Point the leaf holding *key* at another leaf through a newPage
    link made in the current sync window, as an unsynced shadow split
    leaves its dead page: a descent to *key* then moves."""
    path = tree._descend(tree.codec.encode(key))
    try:
        leaf = path[-1]
        view = NodeView(leaf.buffer.data)
        view.new_page = view.right_peer or view.left_peer
        view.sync_token = tree._token()
        tree.file.mark_dirty(leaf.buffer)
    finally:
        tree._unpin_path(path)


def test_new_page_move_fault_releases_every_pin(monkeypatch):
    _, tree = small_tree("shadow")
    _plant_new_page(tree, 0)
    monkeypatch.setattr(tree, "_m_moves_right", _FailingCounter())
    with pytest.raises(RuntimeError, match="injected fault"):
        tree.lookup(0)
    assert tree.file.pool.total_pins() == 0


@pytest.mark.parametrize("fault", ["damaged_peer", "counter"])
@pytest.mark.parametrize("kind", ["shadow", "reorg", "hybrid"])
def test_right_move_fault_releases_every_pin(kind, fault, monkeypatch):
    """A move right pins the peer before checking that it covers the
    key; a peer whose keys cannot be read, or a failure once the move is
    made, must leave no pin behind."""
    tree = tree_with_a_peer_cycle(kind)
    if fault == "damaged_peer":
        # the move from the rightmost leaf lands on its left neighbour,
        # whose right peer is that leaf: only the neighbour is damaged
        path = tree._descend(tree.codec.encode(N_KEYS - 1))
        rightmost = path[-1].page_no
        tree._unpin_path(path)
        intact = DecodedNode.min_key

        def min_key(node):
            if node.right_peer == rightmost:
                _fault()
            return intact(node)

        monkeypatch.setattr(DecodedNode, "min_key", min_key)
    else:
        monkeypatch.setattr(tree, "_m_moves_right", _FailingCounter())
    with pytest.raises(RuntimeError, match="injected fault"):
        tree.lookup(BEYOND)
    assert tree.file.pool.total_pins() == 0


def test_bucket_fault_releases_its_pin():
    """``_bucket_for`` pins the bucket before the explorer's
    ``pin_child`` point; a fault raised there must release it."""
    engine = StorageEngine.create(page_size=PAGE, seed=3)
    index = ExtendibleHashIndex.create(engine, "h", codec="uint32")
    for i in range(200):
        index.insert(i, tid_for(i))
    previous = set_schedule_hook(_FaultOnPinChild())
    try:
        with pytest.raises(RuntimeError, match="injected fault"):
            index.lookup(7)
    finally:
        set_schedule_hook(previous)
    assert index.file.pool.total_pins() == 0


def test_sanitized_pin_fault_releases_its_pin(monkeypatch):
    """The sanitizing pool records a pin site after pinning; a failure
    recording it must give the pin back."""
    with sanitized():
        _, tree = small_tree("shadow", n=10)
        pool = tree.file.pool
        assert isinstance(pool, SanitizedBufferPool)
        monkeypatch.setattr(sanitizer, "_call_site", _fault)
        with pytest.raises(RuntimeError, match="injected fault"):
            tree.file.pin_meta()
        assert pool.total_pins() == 0
