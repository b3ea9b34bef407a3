"""ROADMAP item 1, repro G, and redone splits of hybrid level-1 pages.

Each case is a single-page loss of one 256-byte hybrid window.  Level-1
pages of a hybrid tree split reorg-style and carry prevPtrs, so a lost
one is rebuilt from the backup its sibling holds (case (c)), or its
durable pre-split image is split again (cases (d)/(e)).  Each case
below names committed keys that only a move right reached, or that a
repair rebuilt from a recycled page, before the fix (DESIGN §5b.12).
Every committed key must come back through ``lookup`` and
``range_scan``, and ``check()`` must hold them after 60 new inserts.
"""

import pytest

from repro import TID, TREE_CLASSES, CrashError, StorageEngine
from repro.storage.crash import CrashOnNthSync

from .helpers import tid_for, verify_recovered


def crash_window(committed, window, lost, *, final_sync):
    """A hybrid tree at 256 bytes: *committed* inserted with a sync
    every 50 (and one more with *final_sync*), then *window* inserted
    and synced with every page but *lost* persisting.  Returns the
    crashed engine and the pages the failed sync wrote."""
    engine = StorageEngine.create(page_size=256, seed=0)
    tree = TREE_CLASSES["hybrid"].create(engine, "ix", codec="uint32")
    for count, key in enumerate(committed, 1):
        tree.insert(key, tid_for(key))
        if count % 50 == 0:
            engine.sync()
    if final_sync:
        engine.sync()
    for key in window:
        tree.insert(key, TID(7, key % 100))
    written = []

    def all_but_lost(pages):
        written.extend(pages)
        return [pid for pid in pages if pid != ("ix", lost)]

    engine.crash_policy = CrashOnNthSync(1, keep=all_but_lost)
    with pytest.raises(CrashError):
        engine.sync()
    return engine, sorted(page for _, page in written)


def test_g_regenerated_page_names_the_leaf_as_it_was_before_the_split():
    """Keys 119 down to 20 committed, 19 down to 0 in the window.  Leaf
    23 splits into 21 and 19; then 21 splits into 15 and 2, and its
    parent, level-1 page 17, is full: it splits with its entry for 21
    redirected to 15, and the new entry ``15 -> 2`` goes to the new
    page 7.  The backup 17 keeps must be 17's half as it stood before
    the split, naming 21: the redirected copy named 15 without 2, so
    page 7, lost and rebuilt from it, sent committed keys 20 and 21 to
    a page only a move right from 15 reached, and the scan missed
    them."""
    engine, written = crash_window(range(119, 19, -1), range(19, -1, -1),
                                   7, final_sync=False)
    assert written == [2, 7, 11, 13, 15, 17, 18, 19, 21, 23, 24]
    verify_recovered("hybrid", engine, set(range(20, 120)))


def test_g_twin_move_right_into_a_page_no_parent_names():
    """Keys 0-99 committed, 100-119 in the window.  Level-1 page 4
    splits while a leaf split below it is being posted: the redirected
    entry for key 99 names the leaf's new low half, 6, and the entry for
    its high half, 10, is the one that triggered the split, so only the
    new page 15 holds it.  15 is lost and rebuilt from 4's backup, which
    held the redirected entry: 10 was left to moves right, and after 60
    inserts ``check()`` no longer found committed key 99."""
    engine, written = crash_window(range(100), range(100, 120), 15,
                                   final_sync=False)
    assert written == [0, 1, 4, 6, 10, 12, 13, 14, 15, 16]
    verify_recovered("hybrid", engine, set(range(100)))


def test_redone_split_rebuilds_a_cut_leaf_from_its_own_image():
    """Every fourth key of 0-799 committed, the other keys of 300-499
    in the window, which a sync stall splits in two.  Level-1 page 43,
    made by the window, is lost; rebuilt from 37's backup it names leaf
    6 for keys from 396 up to 440, but the root bounds 43 at 426, so
    its split is redone there and 6, which still holds the committed
    keys 396-436, no longer fits its entry.  The entry's prevPtr, page
    14, was recycled long before the window; rebuilding 6 from it lost
    396-424 (412-424 while the backup still named the redirected
    leaf).  The cut leaf is rebuilt from its own image instead."""
    engine, written = crash_window(
        range(0, 800, 4), [k for k in range(300, 500) if k % 4], 43,
        final_sync=True)
    assert written == [11, 12, 13, 15, 16, 17, 18, 19, 21, 22, 30, 32, 35,
                       36, 37, 41, 43, *range(45, 62)]
    verify_recovered("hybrid", engine, set(range(0, 800, 4)))


def test_redone_split_of_a_durable_page_keeps_its_cut_leaf():
    """The same mechanism with no backup involved: every fourth key of
    0-399 committed, the other keys of 0-399 in the window.  Level-1
    page 4 split in the window and its new image is lost, so the
    descent finds the durable pre-split image, wider than the root
    says, and redoes the split; leaf 8, cut by it, was rebuilt from
    its recycled prevPtr, page 10, losing committed keys 176-212."""
    engine, written = crash_window(
        range(0, 400, 4), [k for k in range(400) if k % 4], 4,
        final_sync=True)
    assert written == [1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 14, 15, 16, 18,
                       20, 24, *range(26, 104)]
    verify_recovered("hybrid", engine, set(range(0, 400, 4)))
