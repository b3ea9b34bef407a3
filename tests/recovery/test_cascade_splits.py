"""Cascaded-split crash states: a leaf split that overflows its parent in
the same window.

Regression guard for a subtle no-overwrite violation: on the parent-
overflow path, the child redirection (split step 5) must materialize only
in the parent's split products, never on the parent's own buffer — that
buffer's durable image is the recovery `prev`, and a prev with a narrowed
K1 and no K2 silently loses the other half's committed keys.
"""

import pytest

from repro import (
    CrashError,
    CrashOnceKeepingPages,
    StorageEngine,
    TID,
    TREE_CLASSES,
)
from repro.core.nodeview import NodeView
from repro.storage import RecordingPolicy, SubsetEnumerator

from .helpers import PAGE, tid_for


def build_cascade(kind: str, seed: int = 5):
    """Committed base, then keep inserting (no sync) until a split
    cascades into the parent level: one insert splits a leaf and its
    parent."""
    engine = StorageEngine.create(page_size=PAGE, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    committed = set()
    i = 0
    # grow until height 3 so a parent (level-1) split is not a root split
    while tree.height < 3:
        tree.insert(i, tid_for(i))
        committed.add(i)
        i += 1
        if i % 64 == 0:
            engine.sync()
    engine.sync()

    # insert until one insert splits a leaf and, through it, a level-1
    # page (the first cascade comes well before the root splits again)
    while True:
        splits = tree.splits.value
        tree.insert(i, tid_for(i))
        i += 1
        if tree.splits.value - splits >= 2:
            return engine, tree, committed


@pytest.mark.parametrize("kind", ["shadow", "hybrid"])
def test_retired_pages_never_modified_after_retirement(kind):
    # (the reorg tree remaps rather than retiring pages; its equivalent
    # guarantee — the backup is the true pre-split image — is covered in
    # tests/core/test_reorg_split.py)
    """Once a page is retired by a split (awaiting deferred free, i.e. a
    live recovery source), its item content must never change again —
    "the keys on P are neither modified nor overwritten"."""
    engine, tree, committed = build_cascade(kind)
    deferred = list(tree.file.freelist._deferred)
    assert deferred, "cascade should retire at least one page"

    def item_region(page_no):
        buf = tree.file.pin(page_no)
        try:
            # header fields like newPage/token may be restamped; the
            # guarantee is about the keys — compare the item region
            view = NodeView(buf.data, PAGE)
            return bytes(buf.data[view.lower:])
        finally:
            tree.file.unpin(buf)

    before = {p: item_region(p) for p in deferred}
    # keep working in the same window: more splits, more cascades
    i = 100_000
    splits = tree.splits.value
    while tree.splits.value < splits + 6:
        tree.insert(i, tid_for(i))
        i += 1
    for page_no, image in before.items():
        assert item_region(page_no) == image, (
            f"retired page {page_no} was modified after retirement")


@pytest.mark.parametrize("kind", ["shadow", "reorg", "hybrid"])
@pytest.mark.parametrize("seed", [5, 9, 23])
def test_every_crash_subset_of_a_cascaded_split(kind, seed):
    """Exhaustive (or sampled) subset sweep over the sync that commits a
    leaf split plus its parent split."""
    probe_engine, probe_tree, committed = build_cascade(kind, seed)
    recorder = RecordingPolicy()
    probe_engine.sync(recorder)
    batch = recorder.batches[0]

    from repro import CrashOnNthSync
    subsets = list(SubsetEnumerator(batch, max_exhaustive=8,
                                    sample=50, seed=seed).subsets())
    for subset in subsets:
        if len(subset) == len(batch):
            continue
        engine, tree, committed2 = build_cascade(kind, seed)
        with pytest.raises(CrashError):
            engine.sync(CrashOnNthSync(1, keep=list(subset)))
        engine2 = StorageEngine.reopen_after_crash(engine)
        tree2 = TREE_CLASSES[kind].open(engine2, "ix")
        missing = [k for k in committed2 if tree2.lookup(k) is None]
        assert not missing, (
            f"subset {sorted(p[1] for p in subset)} lost "
            f"{sorted(missing)[:6]}")
