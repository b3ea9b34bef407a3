"""Intra-page inconsistencies: a page written to stable storage mid-insert
(the two-transactions-one-page scenario of Section 2).

The harness plants genuine mid-insert byte images on the durable store —
the exact artifact a crash during a concurrent insert would leave — and
verifies detect-on-first-use repairs them.
"""

import pytest

from repro import StorageEngine, TID, TREE_CLASSES
from repro.analysis.sanitizer import suspended
from repro.core import items as I
from repro.core.detect import Action, Kind
from repro.core.nodeview import NodeView

from .helpers import PAGE, tid_for


def build_with_torn_page(kind: str, *, seed: int = 31, step_index=0):
    """Build a committed tree, then overwrite one leaf's durable image
    with a mid-insert snapshot of itself."""
    engine = StorageEngine.create(page_size=PAGE, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    committed = set(range(0, 192, 2))
    for i in sorted(committed):
        tree.insert(i, tid_for(i))
        if i % 64 == 62:
            engine.sync()
    engine.sync()

    # pick a middle leaf and capture a torn image of an insert into it
    path = tree._descend((96).to_bytes(4, "big"))
    leaf = path[-1]
    leaf_no = leaf.page_no
    tree._unpin_path(path)

    # the frame is written behind the pool's back on purpose (no
    # mark_dirty: the process is about to die), which is exactly what the
    # sanitizer's decoded-node check exists to refuse
    with suspended(), tree.file.pinned(leaf_no) as buf:
        view = NodeView(buf.data, tree.page_size)
        if view.prev_n_keys:
            # a real insert would run the reclamation check first (the
            # split is long since committed: case 2)
            view.reclaim_backup()
        keys_before = [int.from_bytes(k, "big") for k in view.keys()]
        new_key = keys_before[0] + 1
        assert new_key not in committed
        images = []
        slot, found = view.search(new_key.to_bytes(4, "big"))
        assert not found
        view.insert_item(slot, I.pack_leaf_item(new_key.to_bytes(4, "big"),
                                                TID(9, 9)),
                         step_hook=lambda _l: images.append(bytes(view.buf)))
    torn = images[min(step_index, len(images) - 1)]
    # the torn image reaches stable storage; the process dies
    tree.file.disk.write_page(leaf_no, torn)
    engine.dead = True
    return engine, committed, leaf_no, set(keys_before)


@pytest.mark.parametrize("kind", ["shadow", "reorg", "hybrid"])
@pytest.mark.parametrize("step_index", [0, 1, 2, 5])
def test_torn_insert_detected_and_repaired(kind, step_index):
    engine, committed, leaf_no, leaf_keys = build_with_torn_page(
        kind, step_index=step_index)
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[kind].open(engine2, "ix")
    for key in sorted(committed):
        assert tree2.lookup(key) is not None, key
    repaired = [r for r in tree2.repair_log if r.kind is Kind.INTRA_PAGE]
    if repaired:
        assert repaired[0].action is Action.DELETED_DUPLICATE
    # the repaired page is structurally clean
    buf = tree2.file.pin(leaf_no)
    try:
        view = NodeView(buf.data, tree2.page_size)
        assert view.find_intra_page_inconsistency() is None
    finally:
        tree2.file.unpin(buf)


@pytest.mark.parametrize("kind", ["shadow", "reorg"])
def test_torn_page_repair_is_one_time(kind):
    engine, committed, leaf_no, _ = build_with_torn_page(kind,
                                                         step_index=1)
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[kind].open(engine2, "ix")
    probe = min(committed)
    for _ in range(3):
        tree2.lookup(probe)
    assert tree2.repair_log.count(Kind.INTRA_PAGE) <= 1


def test_vet_only_scans_pre_crash_pages():
    """Pages written since recovery are not re-scanned — detection on
    first use costs O(1) in steady state."""
    engine = StorageEngine.create(page_size=PAGE, seed=2)
    tree = TREE_CLASSES["shadow"].create(engine, "ix", codec="uint32")
    for i in range(64):
        tree.insert(i, tid_for(i))
    engine.sync()
    vetted_before = len(tree._vetted)
    for i in range(64, 128):
        tree.insert(i, tid_for(i))
    assert tree.repair_log.count(Kind.INTRA_PAGE) == 0
    assert len(tree._vetted) >= vetted_before
