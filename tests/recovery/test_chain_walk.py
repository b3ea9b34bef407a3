"""The sweep's pass-end chain walk is the full scan it replaced.

``RepairSweep`` used to end each pass with ``sum(1 for _ in
tree.range_scan())``; it now calls ``walk_leaf_chain``, which crosses the
same links through the same ``_next_leaf`` but counts a leaf at a time.
On every crashed state of the exhaustive single-split campaign — some of
which leave Figure 3's stale dual path, the one place the scan's "resume
strictly after the last key yielded" rule changes the count — the two
must agree on the count, on the repairs they fire and on every byte they
leave behind.
"""

import pytest

from repro import (
    CrashError,
    CrashOnNthSync,
    StorageEngine,
    TREE_CLASSES,
)
from repro.constants import INVALID_PAGE
from repro.core.keys import MIN_KEY
from repro.core.nodeview import NodeView
from repro.storage import RecordingPolicy, SubsetEnumerator

from .test_blink_dual_path import build_dual_path
from .test_exhaustive_subsets import build_scenario

KINDS = ["shadow", "reorg", "hybrid"]


def scan_at_pass_end(tree) -> None:
    """Give *tree* the pass-end walk the sweep used to run."""
    tree.walk_leaf_chain = lambda: sum(1 for _ in tree.range_scan())


def crashed_scenario(kind: str, subset):
    engine, _tree = build_scenario(kind)
    with pytest.raises(CrashError):
        engine.sync(CrashOnNthSync(1, keep=list(subset)))
    reopened = StorageEngine.reopen_after_crash(engine)
    return TREE_CLASSES[kind].open(reopened, "ix")


def repairs(tree) -> list[tuple]:
    return [(entry.kind, entry.page_no, entry.action, entry.detail)
            for entry in tree.repair_log]


def pages(tree) -> list[bytes]:
    out = []
    for page_no in range(1, tree.file.n_pages):
        with tree.file.pinned(page_no) as buf:
            out.append(bytes(buf.data))
    return out


def keys_on_the_chain(tree) -> int:
    """Every key on every leaf of the peer chain, overlaps and all."""
    path = tree._descend(MIN_KEY)
    page_no = path[-1].page_no
    tree._unpin_path(path)
    total = 0
    while page_no != INVALID_PAGE:
        with tree.file.pinned(page_no) as buf:
            view = NodeView(buf.data, tree.page_size)
            total += view.n_keys
            page_no = view.right_peer
    return total


def assert_walk_is_the_scan(walked, scanned) -> None:
    """*walked* and *scanned* opened the same bytes; one sweeps with the
    chain walk, the other with the scan."""
    scan_at_pass_end(scanned)
    sweep = walked.repair_sweep()
    while not sweep.done:
        sweep.step(5)
    assert sweep.keys_seen == scanned.drive_repairs()
    fired = repairs(walked)
    assert fired == repairs(scanned)
    assert pages(walked) == pages(scanned)
    # and the walk left nothing for a scan to find
    assert sweep.keys_seen == sum(1 for _ in walked.range_scan())
    assert repairs(walked) == fired
    relax = dict(strict_tokens=False, require_peer_chain=False)
    assert walked.verify(**relax) == len(walked.check(**relax))


@pytest.mark.parametrize("kind", KINDS)
def test_every_crash_subset_counts_and_repairs_like_a_scan(kind):
    probe_engine, _ = build_scenario(kind)
    recorder = RecordingPolicy()
    probe_engine.sync(recorder)
    batch = recorder.batches[0]
    overlapping = 0
    for subset in SubsetEnumerator(batch).subsets():
        if len(subset) == len(batch):
            continue
        walked = crashed_scenario(kind, subset)
        assert_walk_is_the_scan(walked, crashed_scenario(kind, subset))
        overlapping += keys_on_the_chain(walked) != walked.walk_leaf_chain()
    # the campaign does reach the overlap rule (no crashed state of the
    # reorg split leaves a stale leaf on the chain)
    assert overlapping or kind == "reorg"


@pytest.mark.parametrize("kind", KINDS)
def test_figure_3_dual_path_counts_like_a_scan(kind):
    walked, committed, _ = build_dual_path(kind)
    scanned, _, _ = build_dual_path(kind)
    assert_walk_is_the_scan(walked, scanned)
    assert walked.walk_leaf_chain() >= len(committed)


@pytest.mark.parametrize("kind", KINDS + ["normal"])
def test_undamaged_tree_counts_like_a_scan(kind):
    def build():
        engine = StorageEngine.create(page_size=512, seed=5)
        tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
        for i in range(700):
            tree.insert(i * 7 % 1009, (i, 1))
        engine.sync()
        return tree
    walked = build()
    assert_walk_is_the_scan(walked, build())
    assert walked.walk_leaf_chain() == 700 and not repairs(walked)
