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

from bisect import bisect_right

import pytest

from repro import (
    CrashError,
    CrashOnNthSync,
    StorageEngine,
    TREE_CLASSES,
)
from repro.constants import INVALID_PAGE
from repro.core.keys import MIN_KEY
from repro.core.nodeview import NodeView, node_of
from repro.storage import RecordingPolicy, SubsetEnumerator
from repro.storage import page as P

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


def build_undamaged(kind: str, page_size: int = 512):
    engine = StorageEngine.create(page_size=page_size, seed=5)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    for i in range(700):
        tree.insert(i * 7 % 1009, (i, 1))
    engine.sync()
    return tree


@pytest.mark.parametrize("kind", KINDS + ["normal"])
def test_undamaged_tree_counts_like_a_scan(kind):
    walked = build_undamaged(kind)
    assert_walk_is_the_scan(walked, build_undamaged(kind))
    assert walked.walk_leaf_chain() == 700 and not repairs(walked)


def walk_decoding_every_leaf(tree) -> int:
    """The chain walk as it was before it counted leaves off their bytes:
    a bulk key decode per leaf, the per-item read where that fails."""
    path = tree._descend(MIN_KEY)
    tree._unpin_path(path[:-1])
    page_no, buf = path[-1].page_no, path[-1].buffer
    seen, last_key = 0, None
    try:
        while True:
            keys = node_of(buf).all_keys()
            if keys and (last_key is None or keys[-1] > last_key):
                seen += len(keys) - (0 if last_key is None
                                     else bisect_right(keys, last_key))
                last_key = keys[-1]
            nxt = tree._next_leaf(page_no, buf)
            if nxt is None:
                return seen
            tree._unpin(buf)
            buf = None
            page_no = nxt
            buf = tree.file.pin(page_no)
    finally:
        if buf is not None:
            tree._unpin(buf)


def outcome(fn):
    try:
        return "returned", fn()
    # whatever reading a garbage page raises is the contract compared
    except Exception as exc:  # lint: disable=R005
        return type(exc), str(exc)


def set_line(slot, past_the_limit):
    """Point line-table entry ``slot(n_keys)`` *past_the_limit* bytes
    beyond the last offset a key length can be read from."""
    return lambda data, view: P.set_line(
        data, slot(view.n_keys), len(data) - 2 + past_the_limit)


#: name -> (damage, whether reading the page's keys raises)
DAMAGE = {
    "first-line-off-the-page": (set_line(lambda n: 0, 1), True),
    "middle-line-off-the-page": (set_line(lambda n: n // 2, 1), True),
    "last-line-off-the-page": (set_line(lambda n: n - 1, 1), True),
    "middle-line-past-the-page": (set_line(lambda n: n // 2, 2), True),
    "line-table-off-the-page":
        (lambda data, view: setattr(view, "n_keys", 0xFFFF), True),
    "middle-line-at-the-limit": (set_line(lambda n: n // 2, 0), False),
    "last-line-at-the-limit": (set_line(lambda n: n - 1, 0), False),
}


def damage_second_leaf(tree, mutate) -> None:
    """Apply *mutate* to the second leaf of the chain, through the pool."""
    path = tree._descend(MIN_KEY)
    second = NodeView(path[-1].buffer.data).right_peer
    tree._unpin_path(path)
    buf = tree.file.pin(second)
    try:
        mutate(buf.data, NodeView(buf.data))
        tree.file.mark_dirty(buf)
    finally:
        tree.file.unpin(buf)


@pytest.mark.parametrize("page_size", [512, 600])
@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("kind", KINDS + ["normal"])
def test_a_damaged_leaf_counts_or_raises_as_decoding_it_did(
        kind, damage, page_size):
    """Counting a leaf off its bytes reads two keys of it; a leaf whose
    other keys cannot be read must still raise, and the same error.  One
    whose keys can all be read is walked through: the garbled key leaves
    it out of order, which is the validator's to reject.  (A page size
    that is not a whole number of 256-byte blocks takes the other branch
    of the line-table test.)"""
    mutate, raises = DAMAGE[damage]
    outcomes = []
    for walk in (lambda tree: tree.walk_leaf_chain(),
                 walk_decoding_every_leaf):
        tree = build_undamaged(kind, page_size)
        damage_second_leaf(tree, mutate)
        outcomes.append(outcome(lambda: walk(tree)))
    if raises:
        assert outcomes[0] == outcomes[1] and outcomes[0][0] != "returned"
    else:
        assert outcomes[0][0] == outcomes[1][0] == "returned"
