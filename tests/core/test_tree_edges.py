"""Edge cases across page sizes, key shapes, and boundary conditions."""

import pytest

from repro import StorageEngine, TID, TREE_CLASSES
from repro.errors import TreeError

from ..conftest import tid_for


@pytest.mark.parametrize("page_size", [256, 1024, 4096])
@pytest.mark.parametrize("kind", ["normal", "shadow", "reorg", "hybrid"])
def test_page_size_sweep(kind, page_size):
    engine = StorageEngine.create(page_size=page_size, seed=3)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    n = 400
    for i in range(n):
        tree.insert(i, tid_for(i))
        if i % 100 == 99:
            engine.sync()
    engine.sync()
    assert len(tree.check()) == n
    assert tree.lookup(n // 2) == tid_for(n // 2)


@pytest.mark.parametrize("kind", ["shadow", "reorg"])
def test_large_byte_keys(kind):
    engine = StorageEngine.create(page_size=1024, seed=3)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="bytes")
    keys = [bytes([i]) * 40 for i in range(1, 120)]
    for i, key in enumerate(keys):
        tree.insert(key, TID(1, i))
    engine.sync()
    assert [v for v, _ in tree.range_scan()] == sorted(keys)
    assert tree.height >= 2


@pytest.mark.parametrize("kind", ["shadow", "reorg"])
def test_key_too_large_raises_cleanly(kind):
    from repro.errors import ReproError
    engine = StorageEngine.create(page_size=256, seed=3)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="bytes")
    with pytest.raises(ReproError):
        for i in range(4):
            tree.insert(bytes([i]) * 200, TID(1, i))


def test_single_key_tree_survives_restart(engine, tree_kind):
    cls = TREE_CLASSES[tree_kind]
    tree = cls.create(engine, "ix")
    tree.insert(1, TID(1, 1))
    engine.shutdown()
    from repro import StorageEngine
    engine2 = StorageEngine.reopen(engine)
    tree2 = cls.open(engine2, "ix")
    assert tree2.lookup(1) == TID(1, 1)


def test_boundary_key_values(tree):
    for value in (0, 1, 2**31, 2**32 - 1):
        tree.insert(value, TID(1, 0))
    assert [v for v, _ in tree.range_scan()] == [0, 1, 2**31, 2**32 - 1]
    assert tree.lookup(2**32 - 1) == TID(1, 0)


def test_min_key_sentinel_never_collides(tree):
    """Key 0 encodes to four zero bytes, not the empty minus-infinity
    sentinel — the two must stay distinct."""
    tree.insert(0, TID(1, 0))
    assert tree.lookup(0) == TID(1, 0)
    from ..conftest import fill_tree
    fill_tree(tree, range(1, 300))
    assert tree.lookup(0) == TID(1, 0)
    assert [v for v, _ in tree.range_scan(hi=2)] == [0, 1]


def test_alternating_ends_insertion(tree):
    """Pathological order: alternate smallest/largest remaining."""
    lo, hi = 0, 999
    while lo <= hi:
        tree.insert(lo, tid_for(lo))
        if lo != hi:
            tree.insert(hi, tid_for(hi))
        lo += 1
        hi -= 1
    tree.engine.sync()
    assert len(tree.check()) == 1000


def test_sparse_huge_gaps(tree):
    keys = [0, 1, 2**10, 2**20, 2**30, 2**31, 2**32 - 2]
    for key in keys:
        tree.insert(key, tid_for(key % 1000))
    tree.engine.sync()
    assert [v for v, _ in tree.range_scan()] == keys


@pytest.mark.parametrize("kind", ["shadow", "reorg", "hybrid"])
def test_many_sync_windows(kind):
    """Sync after every single insert: every split straddles its own
    window; tokens and deferred frees churn maximally."""
    engine = StorageEngine.create(page_size=256, seed=3)
    tree = TREE_CLASSES[kind].create(engine, "ix")
    for i in range(150):
        tree.insert(i, tid_for(i))
        engine.sync()
    assert len(tree.check()) == 150


def test_route_on_empty_internal_rejected():
    from repro.constants import PAGE_INTERNAL
    from repro.core.nodeview import NodeView
    view = NodeView(bytearray(256), 256)
    # raw NodeView over a bytearray — no buffer pool, nothing to dirty
    view.init_page(PAGE_INTERNAL, level=1)  # lint: disable=R012
    index, found = view.search(b"\x00")
    assert (index, found) == (0, False)
