"""Garbage collection / freelist regeneration (Section 3.3.3)."""

import pytest

from repro import (
    CrashError,
    RandomSubsetCrash,
    StorageEngine,
    TID,
    TREE_CLASSES,
)
from repro.core.gc import collect_garbage

from ..conftest import fill_tree, tid_for


def test_clean_tree_has_little_garbage(tree):
    fill_tree(tree, range(400))
    report = collect_garbage(tree)
    # a crash-free tree recycles through the freelist; at most a handful
    # of deferred pages were awaiting the final sync
    assert report.leaked <= 3
    assert len(tree.check()) == 400


def test_shadow_churn_is_reclaimed(engine):
    """Shadow splits retire a page per split; without reuse the file would
    double.  GC must find any stragglers and the tree survives."""
    tree = TREE_CLASSES["shadow"].create(engine, "ix")
    fill_tree(tree, range(600), sync_every=600)  # one big window
    report = collect_garbage(tree)
    assert report.scanned == tree.file.n_pages - 1
    assert len(tree.check()) == 600
    # everything freed is genuinely unreachable: reuse it all
    fill_tree(tree, range(1000, 1600))
    assert len(tree.check()) == 1200


def test_gc_after_crash_recovers_leaked_pages(recoverable_kind):
    """Orphans created by crash repairs (abandoned split halves, stale
    dual-path pages) are exactly what the paper's garbage collector is
    for."""
    cls = TREE_CLASSES[recoverable_kind]
    leaked_total = 0
    for seed in range(12):
        engine = StorageEngine.create(page_size=512, seed=seed)
        tree = cls.create(engine, "ix")
        engine.crash_policy = RandomSubsetCrash(p=0.3, seed=seed + 1)
        committed, pending = set(), []
        crashed = False
        i = 0
        while i < 300 and not crashed:
            tree.insert(i, tid_for(i))
            pending.append(i)
            i += 1
            if i % 25 == 0:
                try:
                    engine.sync()
                    committed.update(pending)
                    pending = []
                except CrashError:
                    crashed = True
        if not crashed:
            continue
        engine2 = StorageEngine.reopen_after_crash(engine)
        tree2 = cls.open(engine2, "ix")
        # touch the tree so lazy repairs run
        for key in committed:
            assert tree2.lookup(key) is not None
        report = collect_garbage(tree2)
        leaked_total += report.leaked
        # the tree is fully intact after collection
        assert {int.from_bytes(k, "big") for k, _ in
                tree2.check(strict_tokens=False,
                            require_peer_chain=False)} >= committed
        # and reuses the collected pages
        for key in range(1000, 1050):
            tree2.insert(key, tid_for(key))
        engine2.sync()
    assert leaked_total > 0  # crashes really do leak, GC really recovers


def test_gc_frees_are_erased_before_reuse(recoverable_kind):
    """Collected pages follow the one reuse rule: they wait for the next
    sync, which erases them on stable storage, and only then are listed.
    A leaked pre-split image is exactly what a recycled page must not
    read back as."""
    cls = TREE_CLASSES[recoverable_kind]
    engine = StorageEngine.create(page_size=512, seed=3)
    tree = cls.create(engine, "ix")
    fill_tree(tree, range(300), sync_every=50)
    # descending, so the window's splits cut their pages in the middle
    # and leave halves for the crash to strand
    for key in reversed(range(300, 400)):
        tree.insert(key, tid_for(key))
    with pytest.raises(CrashError):
        # split halves persist without the parents naming them
        engine.sync(RandomSubsetCrash(p=0.5, seed=4))
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = cls.open(engine2, "ix")
    report = collect_garbage(tree2)
    assert report.leaked > 0
    file = tree2.file
    assert len(file.freelist) == 0
    assert file.freelist.pending == report.leaked
    stale = [p for p in report.freed
             if any(file.disk.durable_image(p) or b"")]
    assert stale, "expected leaked pages with their old images"
    engine2.sync()
    assert sorted(file.freelist.entries()) == sorted(report.freed)
    assert all(file.disk.durable_image(p) == bytes(512)
               for p in report.freed)
    for key in range(1000, 1100):
        tree2.insert(key, tid_for(key))
    engine2.sync()
    assert file.freelist.recycled.value > 0
    keys = {int.from_bytes(k, "big") for k, _ in
            tree2.check(strict_tokens=False, require_peer_chain=False)}
    assert set(range(300)) | set(range(1000, 1100)) <= keys


def test_gc_without_sync_first(tree):
    fill_tree(tree, range(200))
    report = collect_garbage(tree, sync_first=False)
    assert report.reachable
    assert len(tree.check()) == 200
