"""The five page-reorganization crash states (paper Section 3.4).

Each test drives the tree to the moment after a leaf split, then crashes
the commit sync keeping exactly the subset of pages that defines one of
the paper's cases:

    (a) only Pa written (replacing P)
    (b) only Pa and Pb written (Pb inaccessible from the parent)
    (c) only the parent and Pa written
    (d) only the parent and Pb written
    (e) only the parent written
    (-) only Pb written — "the tree is not inconsistent (but Pb is lost)"
    (-) nothing written — the whole window evaporates

Recovery must preserve every committed key, accept new work afterwards,
and the repair log must show the matching action.
"""

import pytest

from repro import StorageEngine, TREE_CLASSES
from repro.core.detect import Action, Kind
from repro.core.nodeview import NodeView

from .helpers import build_to_split, crash_keeping, find_split, tid_for, \
    verify_recovered

KIND = "reorg"


def scenario():
    engine, tree, committed, uncommitted, split = build_to_split(KIND)
    assert split["pa"] and split["pb"] and split["parent"]
    return engine, tree, committed, split


def run_case(keep_keys):
    engine, tree, committed, split = scenario()
    keep = [split[name] for name in keep_keys]
    crash_keeping(engine, tree, "ix", keep)
    return engine, committed, split


def recovered_tree(engine, committed):
    return verify_recovered(KIND, engine, committed)


def test_case_a_only_pa_written():
    engine, committed, split = run_case(["pa"])
    tree2 = recovered_tree(engine, committed)
    # the original page was restored from its backup
    assert any(r.kind is Kind.RESTORED_ORIGINAL for r in tree2.repair_log)


def test_case_b_pa_and_pb_written():
    engine, committed, split = run_case(["pa", "pb"])
    tree2 = recovered_tree(engine, committed)
    assert any(r.kind is Kind.RESTORED_ORIGINAL for r in tree2.repair_log)


def test_case_c_parent_and_pa_written():
    engine, committed, split = run_case(["parent", "pa"])
    tree2 = recovered_tree(engine, committed)
    # Pb was regenerated from Pa's backup keys
    kinds = {r.kind for r in tree2.repair_log}
    assert Kind.LOST_SIBLING in kinds or Kind.ZEROED_CHILD in kinds


def test_case_d_parent_and_pb_written():
    engine, committed, split = run_case(["parent", "pb"])
    tree2 = recovered_tree(engine, committed)
    # Pa's slot still held the pre-split page: the split was redone
    assert any(r.kind is Kind.WIDE_CHILD
               and r.action is Action.REDID_SPLIT
               for r in tree2.repair_log)


def test_case_e_only_parent_written():
    engine, committed, split = run_case(["parent"])
    tree2 = recovered_tree(engine, committed)
    assert any(r.action is Action.REDID_SPLIT for r in tree2.repair_log)


def test_only_pb_written_tree_consistent():
    """Paper: 'If only Pb is written, the tree is not inconsistent (but
    page Pb is lost).'"""
    engine, committed, split = run_case(["pb"])
    tree2 = recovered_tree(engine, committed)


def test_nothing_written():
    engine, committed, split = run_case([])
    recovered_tree(engine, committed)


def test_pa_backup_contains_exactly_pbs_half():
    """Structural cross-check of Figure 2 at the crash point."""
    from repro.core import items as I
    from repro.core.nodeview import NodeView
    engine, tree, committed, split = scenario()
    buf = tree.file.pin(split["pa"])
    try:
        pa = NodeView(buf.data, tree.page_size)
        backup_keys = [I.item_key(b, 0) for b in pa.backup_items()]
        assert pa.prev_n_keys == pa.n_keys + len(backup_keys)
    finally:
        tree.file.unpin(buf)
    pbuf = tree.file.pin(split["pb"])
    try:
        pb = NodeView(pbuf.data, tree.page_size)
        pb_keys = list(pb.keys())
        # Pb = backup half plus the split-triggering key
        assert set(backup_keys) <= set(pb_keys)
        assert len(pb_keys) == len(backup_keys) + 1
    finally:
        tree.file.unpin(pbuf)


def test_repeated_crashes_across_epochs():
    """Crash, recover, crash again in a later window: tokens from all
    epochs coexist and recovery still holds."""
    from repro import StorageEngine, TREE_CLASSES
    from .helpers import tid_for
    engine, tree, committed, split = scenario()
    crash_keeping(engine, tree, "ix", [split["parent"]])

    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[KIND].open(engine2, "ix")
    for k in sorted(committed):
        assert tree2.lookup(k) is not None
    # new committed work, then a second crash in a fresh window
    for key in range(200, 280):
        tree2.insert(key, tid_for(key))
    engine2.sync()
    committed |= set(range(200, 280))
    splits_before = tree2.splits.value
    key = 300
    while tree2.splits.value == splits_before:
        tree2.insert(key, tid_for(key))
        key += 1
    from .helpers import find_split
    split2 = find_split(tree2)
    crash_keeping(engine2, tree2, "ix",
                  [p for p in (split2["parent"],) if p])
    verify_recovered(KIND, engine2, committed)


def _view(tree, page_no):
    """A private copy of a page's bytes, for inspection."""
    buf = tree.file.pin(page_no)
    try:
        return NodeView(bytearray(buf.data), tree.page_size)
    finally:
        tree.file.unpin(buf)


def _leaf_keys(tree, page_no):
    buf = tree.file.pin(page_no)
    try:
        view = NodeView(buf.data, tree.page_size)
        return [int.from_bytes(view.key_at(i), "big")
                for i in range(view.n_keys)]
    finally:
        tree.file.unpin(buf)


def test_reclaimed_sibling_does_not_revive_its_deletes():
    """Pa's backup outlives the split until Pa is next updated.  Deleting
    every key on Pb reclaims Pb, whose parent entry goes, which widens
    Pa's bounds over the backup half: a later crash used to read that as
    case 3 with the parent not updated and restore the pre-split page,
    bringing back keys whose deletes were committed."""
    engine, tree, committed, uncommitted, split = build_to_split(KIND,
                                                                 seed=1)
    engine.sync()
    pb_keys = _leaf_keys(tree, split["pb"])
    for key in pb_keys:
        tree.delete(key)
    engine.sync()
    tree.delete(1)
    crash_keeping(engine, tree, "ix", [])

    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[KIND].open(engine2, "ix")
    assert [k for k in pb_keys if tree2.lookup(k) is not None] == []
    assert not any(r.kind is Kind.RESTORED_ORIGINAL
                   for r in tree2.repair_log)
    expected = (committed | uncommitted) - set(pb_keys)
    assert {v for v, _ in tree2.range_scan()} == expected


def test_sibling_split_between_resolves_the_backup_naming_it():
    """A split of Pb whose triggering key lands in Pb's low half puts its
    new page between Pa and Pb, so a later reclaim of Pb could not find
    Pa among Pb's peers: the split resolves Pa's backup first.  Without
    that, Pb's page is erased and recycled while Pa's backup still names
    it, and a crash that loses the recycled image has case 3 regenerate
    Pa's backup half over it."""
    engine, tree, committed, uncommitted, split = build_to_split(KIND,
                                                                 seed=1)
    engine.sync()
    pa, pb = split["pa"], split["pb"]
    pb_keys = _leaf_keys(tree, pb)
    low = pb_keys[:3]
    for key in low:
        tree.delete(key)
    engine.sync()
    item_size = len(_view(tree, pb).items()[0])
    key = max(committed | uncommitted) + 1
    while tree._page_can_fit(_view(tree, pb), item_size):
        tree.insert(key, tid_for(key))
        key += 1
    splits = tree.splits.value
    tree.insert(low[0], tid_for(low[0]))
    assert tree.splits.value == splits + 1
    assert _view(tree, pa).prev_n_keys == 0

    live = (committed | uncommitted | set(range(max(pb_keys) + 1, key))
            | {low[0]}) - set(low[1:])
    for k in _leaf_keys(tree, pb):
        tree.delete(k)
        live.discard(k)
    engine.sync()                     # Pb reclaimed, erased, listed
    splits = tree.splits.value
    while tree.splits.value == splits:
        tree.insert(key, tid_for(key))
        key += 1
    crash_keeping(engine, tree, "ix", [])

    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[KIND].open(engine2, "ix")
    assert all(tree2.lookup(k) is not None for k in live)
    assert [v for v, _ in tree2.range_scan()] == sorted(live)


def test_regenerated_sibling_relinks_its_far_neighbour():
    """Case (c) where the split's restamp of Pb's right neighbour was
    lost too: that neighbour still names Pa as its left peer.  The
    regeneration must point it at Pb, or a later split of the neighbour
    that puts its new page to its left splices that page in right after
    Pa, and Pb's keys drop out of every scan (lookups still find them)."""
    engine = StorageEngine.create(page_size=512, seed=23)
    tree = TREE_CLASSES[KIND].create(engine, "ix", codec="uint32")
    committed = set(range(0, 800, 2))
    tree.insert_many((k, tid_for(k)) for k in sorted(committed))
    engine.sync()
    tree.insert(211, tid_for(211))      # splits the leaf holding 210
    split = find_split(tree)
    pa = _view(tree, split["pa"])
    assert pa.live_is_low and pa.right_peer == split["pb"]
    crash_keeping(engine, tree, "ix", [split["parent"], split["pa"]])

    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[KIND].open(engine2, "ix")
    tree2.drive_repairs()
    engine2.sync()
    assert any(r.kind is Kind.LOST_SIBLING for r in tree2.repair_log)
    far = _view(tree2, split["pb"]).right_peer
    assert _view(tree2, far).left_peer == split["pb"]
    splits = tree2.splits.value
    tree2.insert(241, tid_for(241))     # low half of the far neighbour
    assert tree2.splits.value == splits + 1
    assert ([v for v, _ in tree2.range_scan(200, 300)]
            == sorted({k for k in committed if 200 <= k < 300} | {241}))
