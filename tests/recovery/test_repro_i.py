"""ROADMAP rule (i), repro I: a reorg leaf restored from its backup.

When a crash keeps a leaf's reorganized image but loses the parent
update of its split, the first descent restores the original page
(cases (a)/(b)).  Its peer links come from the backup's record, which
names the neighbours of the split's time: a leaf the window added past
the abandoned sibling drops out of the chain, and keys inserted after
recovery there are found by lookups but not by ``range_scan``.  The
restored leaf is spliced in through the root-to-leaf path instead, as a
regenerated sibling (case (c)) already was.

The splice walks to the neighbouring subtree, and so can be the first to
reach a lost internal page whose keys were all uncommitted.  That page is
rebuilt empty and linked as its left neighbour's right peer; its entry
named the minimum key, so every key past the neighbour's last separator
moved right into it, and committed keys went missing (the second case).
"""

import pytest

from repro import TID, TREE_CLASSES, CrashError, StorageEngine
from repro.storage.crash import CrashOnNthSync

from .helpers import tid_for
from .test_cascade_splits import build_cascade


def crash_window():
    """Reorg, 512-byte pages: 4 000 ascending keys with a sync every 100,
    then 500 more, synced with every page but 155 persisting."""
    engine = StorageEngine.create(page_size=512, seed=0)
    tree = TREE_CLASSES["reorg"].create(engine, "ix", codec="uint32")
    for count, key in enumerate(range(4000), 1):
        tree.insert(key, tid_for(key))
        if count % 100 == 0:
            engine.sync()
    for key in range(4000, 4500):
        tree.insert(key, TID(7, key % 100))
    engine.crash_policy = CrashOnNthSync(
        1, keep=lambda pages: [p for p in pages if p != ("ix", 155)])
    with pytest.raises(CrashError):
        engine.sync()
    return engine


def test_i_restored_leaf_is_spliced_back_into_the_chain():
    """Level-1 page 155 is lost, so leaf 174's split never reached its
    parent: 174 is restored with the right link it had before the
    split, none, and leaves 176 onward, added by the window, were cut
    off the chain."""
    engine = StorageEngine.reopen_after_crash(crash_window())
    tree = TREE_CLASSES["reorg"].open(engine, "ix")
    committed, new = set(range(4000)), set(range(10_000, 10_060))
    assert all(tree.lookup(key) is not None for key in committed)
    for key in sorted(new):
        tree.insert(key, tid_for(key))
    engine.sync()
    assert committed | new <= {value for value, _ in tree.range_scan()}
    tree.check()


def test_rebuilt_empty_page_does_not_draw_its_neighbours_keys():
    """A cascaded split (seed 5) whose sync kept only the pages below:
    level-2 root 39's third entry names page 68, lost, and level-1 page
    38 ends at separator 840.  A lookup of an uncommitted key past 38's
    range rebuilds 68 empty as 38's right peer; committed keys 841-846,
    past 38's last separator, must still be found in leaf 37."""
    engine, _tree, committed = build_cascade("reorg", 5)
    kept = [37, 39, 41, 44, 46, 47, 48, 49, 50, 53, 54, 55, 63, 66]
    with pytest.raises(CrashError):
        engine.sync(CrashOnNthSync(1, keep=[("ix", p) for p in kept]))
    engine = StorageEngine.reopen_after_crash(engine)
    tree = TREE_CLASSES["reorg"].open(engine, "ix")
    assert tree.lookup(5000) is None
    assert [key for key in sorted(committed)
            if tree.lookup(key) is None] == []
