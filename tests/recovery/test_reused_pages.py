"""Crash recovery over recycled pages (Section 3.3.3, without its rule).

The paper refuses to reallocate a freed page for an overlapping key
range, "or there would be no way to tell if the new version of the page
were lost in a crash".  Here no range is recorded: a page reaches the
allocator only after the sync that frees it has completed and the page
has been erased on stable storage.  A lost new image of a recycled page
therefore reads back as zeros, like a lost freshly extended page, and is
rebuilt from its prevPtr.  These tests crash syncs that write recycled
pages — every subset for a shadow leaf split at 256 bytes, seeded
subsets for an extendible-hash bucket split and an R-tree node split.
"""

import random

import pytest

from repro import CrashError, CrashOnNthSync, StorageEngine, TREE_CLASSES
from repro.core.detect import Action
from repro.hash import ExtendibleHashIndex
from repro.rtree import EVERYTHING, Rect, RTreeIndex
from repro.storage import RandomSubsetCrash, RecordingPolicy, \
    SubsetEnumerator

from .helpers import find_split, tid_for

PAGE = 256
COMMITTED = 120


def split_into_reused_pages(insert, splits, file, start: int) -> tuple:
    """Insert keys from *start* until one split happens; return the next
    key and the pages it took off the freelist."""
    listed = set(file.freelist.entries())
    assert listed, "the committed load should have freed pages"
    before = splits.value
    key = start
    while splits.value == before:
        insert(key)
        key += 1
    reused = listed - set(file.freelist.entries())
    assert reused, "the split should take its pages off the freelist"
    return key, reused


def build_shadow(seed: int = 3):
    """A 256-byte shadow tree whose in-flight leaf split writes pages
    that an earlier split freed and a completed sync erased."""
    engine = StorageEngine.create(page_size=PAGE, seed=seed)
    tree = TREE_CLASSES["shadow"].create(engine, "ix", codec="uint32")
    for key in range(COMMITTED):
        tree.insert(key, tid_for(key))
        if (key + 1) % 16 == 0:
            engine.sync()
    engine.sync()
    end, reused = split_into_reused_pages(
        lambda k: tree.insert(k, tid_for(k)), tree.splits, tree.file,
        COMMITTED)
    return engine, tree, set(range(COMMITTED, end)), reused


def test_every_subset_of_a_reused_page_sync_recovers():
    engine, tree, uncommitted, reused = build_shadow()
    split = find_split(tree)
    assert reused <= {split["pa"], split["pb"]}
    recorder = RecordingPolicy()
    engine.sync(recorder)
    batch = recorder.batches[0]
    parent = ("ix", split["parent"])
    assert parent in batch and len(batch) <= 10, batch
    assert {("ix", p) for p in reused} <= set(batch)

    committed = set(range(COMMITTED))
    rebuilt = 0
    for subset in SubsetEnumerator(batch).subsets():
        if len(subset) == len(batch):
            continue
        engine, tree, _uncommitted, _reused = build_shadow()
        with pytest.raises(CrashError):
            engine.sync(CrashOnNthSync(1, keep=list(subset)))
        lost = [p for p in reused if ("ix", p) not in subset]
        for page_no in lost:
            # the old image was erased before the page was recycled
            assert engine._disks["ix"].read_page(page_no) == bytes(PAGE)

        engine2 = StorageEngine.reopen_after_crash(engine)
        tree2 = TREE_CLASSES["shadow"].open(engine2, "ix")
        assert all(tree2.lookup(k) is not None for k in committed), subset
        # the scan equals the model on the committed keys; which of the
        # window's uncommitted keys a scan and a lookup still see may
        # differ (ROADMAP item 1), and visibility hides them anyway
        scan = [v for v, _ in tree2.range_scan()]
        assert scan == sorted(set(scan)), subset
        assert [v for v in scan if v in committed] == sorted(committed)
        assert set(scan) <= committed | uncommitted, subset
        if parent in subset and lost:
            repaired = {r.page_no for r in tree2.repair_log
                        if r.action is Action.REBUILT_FROM_PREV}
            assert set(lost) <= repaired, (subset, tree2.repair_log)
            rebuilt += 1
        new = set(range(10_000, 10_020))
        for key in sorted(new):
            tree2.insert(key, tid_for(key))
        engine2.sync()
        keys = {int.from_bytes(k, "big") for k, _ in
                tree2.check(strict_tokens=False, require_peer_chain=False)}
        assert committed | new <= keys <= committed | uncommitted | new
    assert rebuilt > 0


def build_hash(seed: int):
    engine = StorageEngine.create(page_size=512, seed=seed)
    index = ExtendibleHashIndex.create(engine, "h", codec="uint32")
    committed = list(range(200))
    for key in committed:
        index.insert(key, tid_for(key))
        if (key + 1) % 25 == 0:
            engine.sync()
    engine.sync()
    end, reused = split_into_reused_pages(
        lambda k: index.insert(k, tid_for(k)), index.bucket_splits,
        index.file, len(committed))
    return engine, index, set(committed), set(range(len(committed), end))


@pytest.mark.parametrize("seed", range(8))
def test_reused_hash_bucket_crash_campaign(seed):
    engine, _index, committed, uncommitted = build_hash(seed)
    with pytest.raises(CrashError):
        engine.sync(RandomSubsetCrash(p=1.0, seed=seed))
    engine2 = StorageEngine.reopen_after_crash(engine)
    index2 = ExtendibleHashIndex.open(engine2, "h")
    found = {k for k in committed | uncommitted
             if index2.lookup(k) is not None}
    assert committed <= found
    for key in range(5000, 5040):
        index2.insert(key, tid_for(key))
    engine2.sync()
    keys = {int.from_bytes(k, "big") for k, _ in index2.check()}
    assert found | set(range(5000, 5040)) == keys


def rect_for(rng: random.Random) -> Rect:
    x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
    return Rect(x, y, x + rng.uniform(1, 20), y + rng.uniform(1, 20))


def build_rtree(seed: int):
    rng = random.Random(seed)
    engine = StorageEngine.create(page_size=512, seed=seed)
    rt = RTreeIndex.create(engine, "r")
    entries = {}

    def insert(i):
        entries[i] = (rect_for(rng), tid_for(i))
        rt.insert(*entries[i])

    for i in range(150):
        insert(i)
        if (i + 1) % 25 == 0:
            engine.sync()
    engine.sync()
    committed = dict(entries)
    split_into_reused_pages(insert, rt.splits, rt.file, len(committed))
    return engine, committed, entries


@pytest.mark.parametrize("seed", range(8))
def test_reused_rtree_node_crash_campaign(seed):
    """R-tree pages are recycled like any other: a lost recycled node
    reads as zeros and fails the magic check, so a valid node at a slot
    is still the child and prev-based repair stays sound."""
    engine, committed, entries = build_rtree(seed)
    with pytest.raises(CrashError):
        engine.sync(RandomSubsetCrash(p=1.0, seed=seed))
    engine2 = StorageEngine.reopen_after_crash(engine)
    rt2 = RTreeIndex.open(engine2, "r")
    for rect, tid in committed.values():
        assert (rect, tid) in rt2.search(rect), (rect, tid)
    tids = {t for _r, t in rt2.search(EVERYTHING)}
    assert tids <= {t for _r, t in entries.values()}
    rt2.insert(Rect(2000.0, 2000.0, 2001.0, 2001.0), tid_for(9999))
    engine2.sync()
    assert {t for _r, t in committed.values()} | {tid_for(9999)} <= \
        {t for _r, t in rt2.search(EVERYTHING)}
