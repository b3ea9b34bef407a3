"""ROADMAP item 1, repro A, as an open-bug count.

A four-shard group loaded with 8 000 committed keys by single inserts,
then crashed mid-sync with about 250 uncommitted keys per shard in
flight — a dozen leaf splits and likely an internal one in one torn
window.  Every committed key must come back through both ``lookup`` and
``range_scan``.  Every case passes; ``512-4`` and ``512-6`` were A2's
(a fresh page split twice inside one sync window, DESIGN §5b.10).

A1, the covering entry, and A2 have their minimal cases here as named
regressions.
"""

import pytest

from repro import TID, TREE_CLASSES, CrashError, StorageEngine
from repro.shard import RecoveryOrchestrator
from repro.storage.crash import CrashOnNthSync

from .helpers import build_crashed_group, tid_for, verify_recovered

TOTAL_KEYS = 8000


def cases():
    for page in (512, 1024, 4096):
        for seed in range(1, 7):
            yield pytest.param(page, seed, id=f"{page}-{seed}")


@pytest.mark.parametrize("page_size,seed", cases())
def test_repro_a_recovers(page_size, seed):
    group = build_crashed_group(4, total_keys=TOTAL_KEYS,
                                page_size=page_size, seed=seed)
    group, report = RecoveryOrchestrator().recover(group, "ix")
    assert report.ok, [r.error for r in report.shards if not r.ok]
    tree = group.open_tree("ix")
    missing = [k for k in range(TOTAL_KEYS) if tree.lookup(k) is None]
    assert not missing, f"committed keys lost to lookup: {missing[:10]}"
    values = [v for v, _ in tree.range_scan()]
    assert values == sorted(set(values)), "scan unsorted or duplicated"
    lost = set(range(TOTAL_KEYS)) - set(values)
    assert not lost, f"committed keys lost to the scan: {sorted(lost)[:10]}"


@pytest.mark.parametrize("engine_seed", [1, 2, 3, 5])
def test_a1_lost_internal_half_keeps_only_its_covering_entry(engine_seed):
    """The 29th uncommitted insert splits internal page 83, the last of
    its level, into 106 and 107 (four fifths kept on the left, DESIGN
    §5o), and the root gains ``0x958 -> 107, prev=83``.  Every page of
    that 11-page sync persists except 107.  Rebuilding 107 from 83 must
    start at the *last* entry of 83 at or below 107's low bound; keeping
    83's entry 0 instead reaches its children a second time and fails
    with "entry-0 separator below bounds".  (Until the split point moved,
    this case was 2 000 keys, 33 inserts, internal page 102 and a
    12-page sync losing page 141.)"""
    engine = StorageEngine.create(page_size=512, seed=engine_seed)
    tree = TREE_CLASSES["shadow"].create(engine, "ix", codec="uint32")
    for i in range(2500):
        tree.insert(i, tid_for(i))
        if (i + 1) % 100 == 0:
            engine.sync()
    for j in range(29):
        tree.insert(2500 + j, TID(7, j))
    batch = []

    def all_but_107(pages):
        batch.extend(pages)
        return [pid for pid in pages if pid != ("ix", 107)]

    engine.crash_policy = CrashOnNthSync(1, keep=all_but_107)
    with pytest.raises(CrashError):
        engine.sync()
    assert len(batch) == 11 and ("ix", 107) in batch
    verify_recovered("shadow", engine, set(range(2500)))



@pytest.mark.parametrize("kind, batch, lost", [
    ("shadow", (2, 4, 7, 15, 17, 19, 21, 24, 25), 7),
    ("hybrid", (2, 7, 11, 13, 15, 17, 18, 19, 21, 23, 24), 13),
])
def test_a2_a_rebuilt_leaf_is_linked_past_its_parents_edge(kind, batch,
                                                           lost):
    """A2 at 256 bytes: keys 119 down to 20 committed, then 19 down to 0
    in one window, whose sync persists every page but *lost*, a leaf of
    uncommitted keys at the left edge of its parent.  The scan that finds
    the lost leaf rebuilds it, and the rebuilt leaf must be linked to the
    first leaf under the next parent: its parent's other children are
    not enough, and linking the left neighbour to the lost page's zeroed
    image dropped every committed key from the scan.  Keys inserted in
    descending order never append to a level's rightmost page, so the
    split point (DESIGN §5o) leaves this shape as it was."""
    engine = StorageEngine.create(page_size=256, seed=1)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    for count, key in enumerate(range(119, 19, -1), 1):
        tree.insert(key, tid_for(key))
        if count % 50 == 0:
            engine.sync()
    for key in range(19, -1, -1):
        tree.insert(key, TID(7, key))
    written = []

    def all_but_lost(pages):
        written.extend(pages)
        return [pid for pid in pages if pid != ("ix", lost)]

    engine.crash_policy = CrashOnNthSync(1, keep=all_but_lost)
    with pytest.raises(CrashError):
        engine.sync()
    assert sorted(written) == [("ix", page) for page in batch]
    verify_recovered(kind, engine, set(range(20, 120)))


def test_a2_a_shared_child_is_rebuilt_on_a_fresh_page():
    """A2 under the right-edge split point (DESIGN §5o), at 256 bytes:
    keys 0-99 committed, then 100-249 in one window.  The durable root,
    page 4, takes new entries in the window and splits, and one of its
    fresh halves splits again.  The sync persists every page but 43, the
    last fresh half, whose range starts at 0xdc, a separator page 4 never
    held.  The first insert after the crash lands in that range and
    rebuilds 43 from page 4: 43 takes 4's entry covering 0xdc, whose
    child, leaf 16, also serves 43's left sibling.  43 must name a fresh
    copy of 16's part of the range, not 16: naming 16 under 4's key
    fails the validator ("entry-0 separator below bounds"), and a repair
    finding 16 too wide for 43 would narrow it in place, under the
    sibling."""
    engine = StorageEngine.create(page_size=256, seed=0)
    tree = TREE_CLASSES["shadow"].create(engine, "ix", codec="uint32")
    for key in range(100):
        tree.insert(key, tid_for(key))
        if (key + 1) % 50 == 0:
            engine.sync()
    engine.sync()
    for key in range(100, 250):
        tree.insert(key, TID(7, key % 100))
    written = []

    def all_but_43(pages):
        written.extend(pages)
        return [pid for pid in pages if pid != ("ix", 43)]

    engine.crash_policy = CrashOnNthSync(1, keep=all_but_43)
    with pytest.raises(CrashError):
        engine.sync()
    assert sorted(written) == [("ix", page)
                               for page in (0, 1, 4, 6, 10, *range(12, 44))]
    verify_recovered("shadow", engine, set(range(100)))


def test_a2_a_lost_child_of_a_source_is_rebuilt_from_its_prev():
    """A2 losing two pages, at 256 bytes: every fourth key of 0-799
    committed, then the other keys of 300-499 in one window.  Durable
    level-1 page 19 takes entries in place in the window, among them
    ``0x144 -> 23, prev=13``: fresh leaf 23 is a half of durable leaf
    13.  Then 19 splits, and a fresh half splits again into 42, whose
    range, up to 0x152, ends inside 23's.  The sync persists every page
    but 42 and 23.  Rebuilding 42 from 19's image must not copy 23's part
    of the range from 23, which is zeroed: 23 fails the descent's test,
    so that part comes from 13, which holds committed keys 324-336."""
    engine = StorageEngine.create(page_size=256, seed=0)
    tree = TREE_CLASSES["shadow"].create(engine, "ix", codec="uint32")
    committed = range(0, 800, 4)
    for count, key in enumerate(committed, 1):
        tree.insert(key, tid_for(key))
        if count % 50 == 0:
            engine.sync()
    engine.sync()
    for key in range(300, 500):
        if key % 4:
            tree.insert(key, TID(7, key % 100))
    written = []

    def all_but_42_and_23(pages):
        written.extend(pages)
        return [pid for pid in pages if pid not in (("ix", 42), ("ix", 23))]

    engine.crash_policy = CrashOnNthSync(1, keep=all_but_42_and_23)
    with pytest.raises(CrashError):
        engine.sync()
    assert sorted(written) == [
        ("ix", page) for page in (3, 4, 6, *range(10, 16), 17,
                                  *range(19, 24), *range(26, 76))]
    verify_recovered("shadow", engine, set(committed))
