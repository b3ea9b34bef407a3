"""The offline verifier."""

import pytest

from repro import (
    CrashError,
    CrashOnceKeepingPages,
    StorageEngine,
    TID,
    TREE_CLASSES,
)
from repro.tools.fsck import fsck_tree

from ..conftest import fill_tree, tid_for


def test_clean_tree_reports_no_problems(tree):
    fill_tree(tree, range(300))
    report = fsck_tree(tree)
    assert report.errors == 0
    assert report.warnings == 0
    assert report.keys == 300
    assert report.leaves >= 2
    assert "errors: 0" in report.render()


def test_leaf_fill_and_file_pages(tree):
    """A batch into an empty tree is built on full leaves; the same keys
    inserted one at a time leave the split path's half-full ones."""
    keys = range(0, 1200, 3)
    tree.insert_many((k, tid_for(k)) for k in keys)
    built = fsck_tree(tree)
    singles = TREE_CLASSES[tree.KIND].create(tree.engine, "singles",
                                             codec="uint32")
    fill_tree(singles, keys)
    inserted = fsck_tree(singles)
    assert built.keys == inserted.keys == len(keys)
    assert 0.85 < built.leaf_fill <= 1
    assert 0 < inserted.leaf_fill < built.leaf_fill
    assert built.pages_scanned == tree.file.n_pages \
        < inserted.pages_scanned == singles.file.n_pages
    assert fsck_tree(TREE_CLASSES[tree.KIND].create(
        tree.engine, "empty", codec="uint32")).leaf_fill == 0


def test_free_pages_reported_and_checked_erased(tree):
    """fsck counts the freelist and holds it to the one reuse rule: a
    listed page whose stable image is not zero is an error."""
    fill_tree(tree, range(300))
    for key in range(50, 250):
        tree.delete(key)
    tree.engine.sync()
    report = fsck_tree(tree)
    free = tree.file.freelist.entries()
    assert report.free_pages == len(free) > 0
    assert report.errors == 0
    stale = free[0]
    tree.file.disk.write_page(stale, b"\x01" * tree.page_size)
    report = fsck_tree(tree)
    assert report.errors == 1
    assert [f.page_no for f in report.findings
            if f.severity == "error"] == [stale]


def test_empty_tree(tree):
    report = fsck_tree(tree)
    assert report.errors == 0
    assert report.keys == 0


def crashed_shadow_tree(inspect_first_restart):
    """A shadow tree committed at 96 keys, crashed losing a whole split
    window, and once more keeping only that split's parent.  The tree
    after the first restart goes to *inspect_first_restart* before
    the second window; returns the tree after the second restart and
    the committed keys."""
    engine = StorageEngine.create(page_size=512, seed=11)
    tree = TREE_CLASSES["shadow"].create(engine, "ix")
    committed = set(range(96))
    for i in sorted(committed):
        tree.insert(i, tid_for(i))
        if (i + 1) % 32 == 0:
            engine.sync()
    engine.sync()
    splits = tree.splits.value
    i = 96
    while tree.splits.value == splits:
        tree.insert(i, tid_for(i))
        i += 1
    with pytest.raises(CrashError):
        engine.sync(CrashOnceKeepingPages(set()))  # lose the window

    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES["shadow"].open(engine2, "ix")
    inspect_first_restart(tree2)

    # now a crash that leaves real damage: parent durable, children lost
    splits = tree2.splits.value
    while tree2.splits.value == splits:
        tree2.insert(i, tid_for(i))
        i += 1
    from tests.recovery.helpers import find_split
    split = find_split(tree2)
    keep = {("ix", split["parent"])} if split["parent"] else set()
    with pytest.raises(CrashError):
        engine2.sync(CrashOnceKeepingPages(keep))
    engine3 = StorageEngine.reopen_after_crash(engine2)
    return TREE_CLASSES["shadow"].open(engine3, "ix"), committed


def test_crashed_tree_findings_then_healed():
    def before(tree2):
        # the durable state is the pre-window tree: consistent, maybe
        # orphans
        report = fsck_tree(tree2)
        assert report.errors == 0
        assert report.keys >= 96

    tree3, committed = crashed_shadow_tree(before)
    damaged = fsck_tree(tree3)
    assert damaged.errors + damaged.warnings > 0

    # touch everything: the lazy repairs run; fsck comes back clean-ish
    for key in sorted(committed):
        assert tree3.lookup(key) is not None
    list(tree3.range_scan())
    healed = fsck_tree(tree3)
    assert healed.errors == 0
    assert healed.keys >= len(committed)


def test_orphan_census_matches_gc():
    from repro.core.gc import collect_garbage
    engine = StorageEngine.create(page_size=512, seed=2)
    tree = TREE_CLASSES["shadow"].create(engine, "ix")
    fill_tree(tree, range(400), sync_every=400)
    report = fsck_tree(tree)
    gc_report = collect_garbage(tree)
    assert len(report.orphans) == gc_report.leaked
    after = fsck_tree(tree)
    assert after.orphans == []
