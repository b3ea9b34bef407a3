"""Decode budget, counted not timed.

``cProfile`` distorts time but counts calls exactly, so these budgets do
not depend on machine load (same method as ``perf/counted.py``).  They
hold the read path to what the decoded node bought: a warm lookup decodes
next to nothing, a lookup that faults its leaf in decodes O(log n) items
instead of the whole page, and a scan pays a handful of calls per key.
They hold recovery to a cost per page: its sweep and its validator make
well under one call per key and build no TID.  And they hold every leaf
operation to one descent and one header read: a warm lookup, a
churn-shaped write pair, an in-place update and an ascending batch have
call budgets, and a batch makes one ``_descend`` per leaf-run.  A change
that re-introduces per-key decoding on a miss, a per-key loop in
recovery, a per-op bypass in front of the descent, a second descent
behind it or a per-field header read in the writer fails here, not in a
wall-clock gate.  The
trees loaded here get their first root before the batch, so it takes
the split path; a batch into a tree with no root is built bottom-up and
has its own budget.
"""

import cProfile
import os
import pstats
import random
from collections import Counter

import pytest

from repro import (
    TID,
    CrashError,
    CrashOnNthSync,
    ShadowBLinkTree,
    StorageEngine,
)
from repro.core.nodeview import DecodedNode
from repro.shard.recovery import ShardRecoveryReport, _sweep

from ..conftest import tid_for
from .helpers import with_first_root

# under REPRO_SANITIZE=1 every unpin re-decodes the page to compare it
# with the node — exactly the work these budgets exist to rule out
pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SANITIZE") == "1",
    reason="the sanitizer's node check decodes on every unpin")

N_KEYS = 20_000
PAGE = 8192
SLICE = 2000


def count_calls(fn) -> tuple[int, int]:
    """``(calls, unpacks)`` made by ``fn()``: every Python-visible call,
    and how many of them were ``struct`` ``unpack_from``."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    calls = unpacks = 0
    for (_file, _line, name), row in pstats.Stats(profile).stats.items():
        calls += row[1]
        if "unpack_from" in name:
            unpacks += row[1]
    return calls, unpacks


@pytest.fixture
def loaded():
    engine = StorageEngine.create(page_size=PAGE, seed=3)
    tree = with_first_root(ShadowBLinkTree.create(engine, "ix",
                                                  codec="uint32"))
    tree.insert_many((key, tid_for(key)) for key in range(N_KEYS))
    engine.sync()
    return engine, tree


def lookups(tree, seed):
    rng = random.Random(seed)
    keys = [rng.randrange(N_KEYS) for _ in range(SLICE)]

    def run():
        for key in keys:
            tree.lookup(key)
    return run


def test_warm_lookup_unpacks(loaded):
    _engine, tree = loaded
    lookups(tree, 1)()                      # fault in and decode
    lookups(tree, 1)()
    _calls, unpacks = count_calls(lookups(tree, 2))
    assert unpacks / SLICE <= 4             # 19 before the decoded node


def test_warm_lookup_calls(loaded):
    _engine, tree = loaded
    lookups(tree, 1)()
    lookups(tree, 1)()
    calls, _unpacks = count_calls(lookups(tree, 2))
    assert calls / SLICE <= 60              # 55; 67 behind the leaf finger


def test_churn_pair_calls(loaded):
    """``embedded_churn``'s shape: an ascending insert at the right edge,
    then a delete of a random old key."""
    _engine, tree = loaded
    victims = random.Random(5).sample(range(N_KEYS), SLICE)

    def churn():
        for i, victim in enumerate(victims):
            tree.insert(N_KEYS + i, tid_for(N_KEYS + i))
            tree.delete(victim)
    calls, unpacks = count_calls(churn)
    # 72.8 and 0.22: the writer takes the header from the frame's node
    # and assigns back what it changed (120 and 10.3 re-reading it field
    # by field; 131 behind the finger)
    assert calls / (2 * SLICE) <= 85
    assert unpacks / (2 * SLICE) <= 4


def test_in_place_update_calls(loaded):
    """``served_mixed``'s write: an update of a present key, on the tree
    the churn pair runs on.  One descent, the leaf's reclamation check and
    one search, then six TID bytes, one dirty-mark and one restamp — no
    second descent, no line-table shift, no split."""
    _engine, tree = loaded
    keys = random.Random(6).sample(range(N_KEYS), SLICE)
    splits = tree.splits.value

    def update():
        for i, key in enumerate(keys):
            tree.update(key, tid_for(N_KEYS + i))
    calls, unpacks = count_calls(update)
    assert tree.splits.value == splits
    # 78.0 and 2.27, two of the unpacks the line entry and key length
    # ``set_tid_at`` reads (149 and 0.30 as a delete and an insert)
    assert calls / SLICE <= 80
    assert unpacks / SLICE <= 2.5


def test_ascending_batch_calls_per_key():
    """Every ``perf`` setup, and PR 20's redo: an ascending
    ``insert_many``.  A leaf's run is planned key by key (encode, pack,
    bisect) and written with one line-table shift, one header update and
    one dirty-mark.  Half-size pages keep the split count of full pages
    cut in the middle: a right-edge split keeps 4/5 (DESIGN §5o)."""
    engine = StorageEngine.create(page_size=PAGE // 2, seed=3)
    tree = with_first_root(ShadowBLinkTree.create(engine, "ix",
                                                  codec="uint32"))
    pairs = [(key, tid_for(key)) for key in range(N_KEYS)]
    calls, _unpacks = count_calls(lambda: tree.insert_many(pairs))
    assert tree.splits.value > 50
    assert calls / N_KEYS <= 25             # 17.5; 101.4 a key at a time


def test_bottom_up_build_calls_per_key():
    """The same batch into a tree with no root: built bottom-up, a key
    costs its encode, one item pack and a place in a page's item list —
    no search, no split."""
    engine = StorageEngine.create(page_size=PAGE, seed=3)
    tree = ShadowBLinkTree.create(engine, "ix", codec="uint32")
    pairs = [(key, tid_for(key)) for key in range(N_KEYS)]
    calls, _unpacks = count_calls(lambda: tree.insert_many(pairs))
    assert tree.splits.value == 0 and tree.height == 2
    assert calls / N_KEYS <= 12             # 10.1; 17.5 on the split path


def test_a_batch_descends_once_per_leaf_run(loaded, monkeypatch):
    """A 2 000-key ascending ``insert_many`` crosses the right edge's
    leaf several times over; every run, the ones that end in a split
    included, reaches its leaf by exactly one descent."""
    _engine, tree = loaded
    counts = {"_descend": 0, "_insert_run": 0}
    for name in counts:
        def counted(*args, name=name, real=getattr(ShadowBLinkTree, name),
                    **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(ShadowBLinkTree, name, counted)
    splits = tree.splits.value
    batch = [(key, tid_for(key)) for key in range(N_KEYS, N_KEYS + SLICE)]
    assert tree.insert_many(batch) == SLICE
    assert tree.splits.value - splits >= 3
    assert counts["_descend"] == counts["_insert_run"]
    # a run ends at a split, and nowhere else in an ascending batch
    assert counts["_insert_run"] <= tree.splits.value - splits + 1


def reopen_cold(engine, tree):
    """*tree* reopened clean over a buffer pool an eighth of its file."""
    tree.close_clean()
    engine.pool_capacity = tree.file.n_pages // 8
    engine.shutdown()
    return ShadowBLinkTree.open(StorageEngine.reopen(engine), "ix")


def count_bulk_decodes(monkeypatch) -> Counter:
    """Count every bulk key decode, per page: a page of a sound tree is
    named by its level and its first key."""
    decodes = Counter()
    materialise = DecodedNode.materialise

    def counting(node):
        keys = materialise(node)
        decodes[node.level, keys[0] if keys else None] += 1
        return keys
    monkeypatch.setattr(DecodedNode, "materialise", counting)
    return decodes


def test_cold_lookup_unpacks(loaded):
    cold = reopen_cold(*loaded)
    lookups(cold, 1)()                      # steady state for the pool
    misses = cold.file.pool.stats.misses
    _calls, unpacks = count_calls(lookups(cold, 2))
    # the budget is about lookups that miss the pool: most must
    assert cold.file.pool.stats.misses - misses > SLICE // 2
    assert unpacks / SLICE <= 40            # 452 before the decoded node


def test_range_scan_calls_per_key(loaded):
    _engine, tree = loaded
    yielded = []
    calls, _unpacks = count_calls(
        lambda: yielded.append(sum(1 for _ in tree.range_scan())))
    assert yielded == [N_KEYS]
    assert calls / N_KEYS <= 6              # about 19 before


def test_short_bounded_scan_decodes_what_it_yields(loaded, monkeypatch):
    from repro.core import nodeview

    engine, tree = loaded
    tree.close_clean()
    engine.pool_capacity = tree.file.n_pages // 8
    engine.shutdown()
    cold = ShadowBLinkTree.open(StorageEngine.reopen(engine), "ix")
    decoded = []

    def counting_tid(page_no, line):
        decoded.append(line)
        return TID(page_no, line)
    rng = random.Random(4)
    starts = [rng.randrange(N_KEYS - 3) for _ in range(SLICE)]
    with monkeypatch.context() as patch:
        patch.setattr(nodeview, "TID", counting_tid)
        for lo in starts:
            assert len(list(cold.range_scan(lo, lo + 3))) == 3
    # the three items it yields, not the ~290 of the leaf they sit on
    assert len(decoded) == 3 * SLICE


def test_recovery_sweep_and_verify_cost_pages_not_keys(loaded, monkeypatch):
    engine, tree = loaded
    tree.insert(N_KEYS, tid_for(N_KEYS))            # a write in flight
    with pytest.raises(CrashError):
        engine.sync(CrashOnNthSync(1, keep=0))
    reopened = ShadowBLinkTree.open(StorageEngine.reopen(engine), "ix")
    relax = dict(strict_tokens=False, require_peer_chain=False)
    built = []
    init = TID.__init__

    def counting_init(self, page_no, line):
        built.append(line)
        init(self, page_no, line)
    counts = []
    with monkeypatch.context() as patch:
        patch.setattr(TID, "__init__", counting_init)
        calls, _unpacks = count_calls(lambda: counts.append(
            (reopened.drive_repairs(), reopened.verify(**relax))))
    assert counts == [(N_KEYS, N_KEYS)] and not reopened.repair_log
    assert not built                        # one per key, twice, before
    assert calls / N_KEYS <= 1              # 4.6 before
    assert calls / reopened.file.n_pages <= 100     # 671 before
    # the collecting form still hands back every pair
    assert reopened.check(**relax) == [
        (tree.codec.encode(key), tid_for(key)) for key in range(N_KEYS)]


def test_chain_walk_counts_a_cold_tree_without_a_decode(loaded, monkeypatch):
    cold = reopen_cold(*loaded)
    decodes = count_bulk_decodes(monkeypatch)
    assert cold.walk_leaf_chain() == N_KEYS
    assert not decodes                      # one per leaf before


def test_cold_sweep_decodes_each_leaf_once(loaded, monkeypatch):
    """With a pool an eighth of the index every leaf is evicted between
    the chain walk and the validator; only the validator decodes it.  (An
    internal page is decoded again by each phase that reads it after an
    eviction: unit enumeration, the descents and the validator.)"""
    cold = reopen_cold(*loaded)
    decodes = count_bulk_decodes(monkeypatch)
    report = ShardRecoveryReport(shard=0)
    _sweep(cold, report, sync=True)
    assert report.keys_seen == N_KEYS and not report.repairs
    leaves = [count for (level, _), count in decodes.items() if level == 0]
    assert len(leaves) > cold.engine.pool_capacity
    assert set(leaves) == {1}               # 2 for every leaf before
