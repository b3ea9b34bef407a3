"""Clean shutdown: freelist persistence and the erase-before-reuse rule
(Section 3.3.3)."""

import pytest

from repro import StorageEngine, TREE_CLASSES
from repro.core.meta import MetaView

from .helpers import PAGE, tid_for


def build_with_free_pages(kind, seed=17):
    engine = StorageEngine.create(page_size=PAGE, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    for i in range(300):
        tree.insert(i, tid_for(i))
        if (i + 1) % 64 == 0:
            engine.sync()
    for i in range(100, 250):
        tree.delete(i)
    engine.sync()
    assert len(tree.file.freelist) > 0
    return engine, tree


@pytest.mark.parametrize("kind", ["shadow", "reorg", "normal", "hybrid"])
def test_erased_freelist_survives_clean_shutdown(kind):
    """The snapshot holds page numbers only: every listed page was erased
    by the drain that listed it, so the reopened allocator needs no key
    range to hand it out again."""
    engine, tree = build_with_free_pages(kind)
    free_before = tree.file.freelist.entries()
    tree.close_clean()
    engine.shutdown()

    engine2 = StorageEngine.reopen(engine)
    tree2 = TREE_CLASSES[kind].open(engine2, "ix")
    reloaded = tree2.file.freelist.entries()
    assert reloaded and set(reloaded) <= set(free_before)
    assert all(tree2.file.disk.durable_image(p) == bytes(PAGE)
               for p in reloaded)
    # reloaded pages are genuinely reusable
    recycled_before = tree2.file.freelist.recycled.value
    for key in range(1000, 1200):
        tree2.insert(key, tid_for(key))
    engine2.sync()
    assert tree2.file.freelist.recycled.value > recycled_before
    pairs = tree2.check()
    assert len(pairs) == 150 + 200


@pytest.mark.parametrize("kind", ["shadow", "reorg"])
def test_snapshot_erased_durably_before_reuse(kind):
    """'the freelist on disk must be deleted before any of the pages on
    the list are reallocated.  Otherwise, a crash will cause the old
    freelist to be valid again and allow the pages to be allocated
    twice.'"""
    engine, tree = build_with_free_pages(kind)
    tree.close_clean()
    engine.shutdown()

    engine2 = StorageEngine.reopen(engine)
    tree2 = TREE_CLASSES[kind].open(engine2, "ix")
    # the durable snapshot is gone the moment the list is loaded
    raw = tree2.file.disk.read_page(0)
    meta = MetaView(bytearray(raw), PAGE)
    assert meta.load_freelist() == []

    # simulate an immediate crash: the reopened store must NOT see the
    # old snapshot again
    engine3 = StorageEngine.reopen_after_crash(engine2)
    tree3 = TREE_CLASSES[kind].open(engine3, "ix")
    assert len(tree3.file.freelist) == 0  # volatile list died, snapshot gone
    for key in range(2000, 2100):
        tree3.insert(key, tid_for(key))
    engine3.sync()
    values = [v for v, _ in tree3.range_scan()]
    assert values == sorted(set(values))


@pytest.mark.parametrize("kind", ["shadow", "reorg"])
def test_crash_without_clean_shutdown_loses_freelist(kind):
    engine, tree = build_with_free_pages(kind)
    # no close_clean, no shutdown: the list is volatile
    engine.dead = True
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[kind].open(engine2, "ix")
    assert len(tree2.file.freelist) == 0
    # the pages leak until the garbage collector regenerates the list
    from repro.core.gc import collect_garbage
    report = collect_garbage(tree2)
    assert report.leaked > 0
