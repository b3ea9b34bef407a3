"""Figure 3: the worst-case inconsistent B-link tree.

A crash can leave the root-to-leaf path holding the post-split version of
a page while the peer-pointer path still runs through the pre-split
version — with *matching* link tokens, so scans cannot tell.  The paper's
guarantees, which these tests verify:

* until the first insert/delete near the duplicates, both paths hold the
  same set of valid keys — reads stay correct;
* the first modification runs the Section 3.5.1 check and splices the
  stale path out before the paths can diverge.
"""

import pytest

from repro import (
    CrashError,
    CrashOnceKeepingPages,
    StorageEngine,
    TID,
    TREE_CLASSES,
)
from repro.core.detect import Kind
from repro.core.nodeview import DecodedNode, NodeView

from .helpers import PAGE, find_split, tid_for

KINDS = ["shadow", "reorg", "hybrid"]


def build_dual_path(kind: str, seed: int = 13, *, overlap: bool = False):
    """Crash so that the split's products and the parent survive but the
    left neighbour's re-stamped peer pointer does not: the old chain then
    bypasses the new pages while the tree routes through them.

    With *overlap*, only the neighbour and the split's low half survive
    instead: the chain runs into that half while the tree still routes
    through the pre-split page, so two leaves on the chain hold the same
    keys."""
    engine = StorageEngine.create(page_size=PAGE, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    committed = set(range(96))
    for i in sorted(committed):
        tree.insert(i, tid_for(i))
        if (i + 1) % 32 == 0:
            engine.sync()
    engine.sync()
    splits = tree.splits.value
    # the window's keys go in descending, so its split cuts the page in
    # the middle and the low half ends below the page's last committed
    # key (an appending split keeps 4/5 on the left, DESIGN §5o)
    i = 300
    while tree.splits.value == splits:
        tree.insert(i, tid_for(i))
        i -= 1
    split = find_split(tree)
    pa = split["pa"]
    with tree.file.pinned(pa) as buf:
        neighbor = NodeView(buf.data, tree.page_size).left_peer
    if overlap:
        keep = {neighbor, pa}
    else:
        keep = {p for p in (split["parent"], split["pa"], split["pb"],
                            split["old"]) if p}
        keep.discard(neighbor)
    policy = CrashOnceKeepingPages({("ix", p) for p in keep})
    with pytest.raises(CrashError):
        engine.sync(policy)
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[kind].open(engine2, "ix")
    return tree2, committed, neighbor


@pytest.mark.parametrize("kind", KINDS)
def test_reads_correct_before_any_write(kind):
    """'Until the first insert/delete after the failure, the duplicate
    pages contain the same set of valid keys.'"""
    tree, committed, _ = build_dual_path(kind)
    for key in sorted(committed):
        assert tree.lookup(key) is not None, key
    values = [v for v, _ in tree.range_scan()]
    assert values == sorted(set(values))
    assert committed <= set(values)


@pytest.mark.parametrize("kind", KINDS)
def test_first_insert_heals_the_path(kind):
    tree, committed, neighbor = build_dual_path(kind)
    # insert keys across the whole range so the damaged region is touched
    for key in range(5000, 5060):
        tree.insert(key, tid_for(key))
    for key in sorted(committed)[::-1]:
        tree.delete(key)
        tree.insert(key, tid_for(key))
    tree.engine.sync()
    # after touching everything, the chain must equal the in-order leaves
    pairs = tree.check(strict_tokens=False, require_peer_chain=True)
    found = {int.from_bytes(k, "big") for k, _ in pairs}
    assert committed <= found


@pytest.mark.parametrize("kind", KINDS)
def test_peer_path_check_is_recorded_and_memoized(kind):
    tree, committed, _ = build_dual_path(kind)
    lo = min(committed)
    tree.delete(lo)
    tree.insert(lo, tid_for(lo))
    checks = tree.repair_log.count(Kind.PEER_PATH_CHECK)
    # repeating the update on the same leaf does not re-walk
    tree.delete(lo)
    tree.insert(lo, tid_for(lo))
    assert tree.repair_log.count(Kind.PEER_PATH_CHECK) == checks


@pytest.mark.parametrize("kind", ["shadow", "hybrid"])
def test_chain_walk_counts_what_a_scan_yields_across_the_overlap(
        kind, monkeypatch):
    """The chain walk counts a leaf off its bytes; where a leaf overlaps
    the last one counted it finds the overlap with a byte search, and no
    leaf is decoded.  (No crash of the reorg split leaves a stale leaf on
    the chain.)"""
    walked, committed, _ = build_dual_path(kind, overlap=True)
    scanned, _, _ = build_dual_path(kind, overlap=True)
    searched, decoded = [], []
    lower_bound = DecodedNode.lower_bound
    materialise = DecodedNode.materialise

    def searching(node, key):
        searched.append(node.is_leaf)
        return lower_bound(node, key)

    def decoding(node):
        decoded.append(node.is_leaf)
        return materialise(node)
    with monkeypatch.context() as patch:
        patch.setattr(DecodedNode, "lower_bound", searching)
        patch.setattr(DecodedNode, "materialise", decoding)
        counted = walked.walk_leaf_chain()
    scan = [key for key, _ in scanned.range_scan()]
    assert counted == len(scan)
    assert committed <= set(scan)
    assert True in searched and True not in decoded
