"""Batched ops: ``insert_many`` / ``delete_many`` equivalence with the
single-key path, mid-batch error semantics, and amortization accounting."""

import random

import pytest

from repro import DuplicateKeyError, KeyNotFoundError, StorageEngine, \
    TREE_CLASSES
from repro.shard import ShardedEngine

from ..conftest import SMALL_PAGE, tid_for
from .helpers import bytes_only

PAGE = SMALL_PAGE
ALL_KINDS = ("normal", "shadow", "reorg", "hybrid")


def build(kind, *, seed=11):
    engine = StorageEngine.create(page_size=PAGE, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    return engine, tree


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_insert_many_matches_singles(kind):
    rng = random.Random(4)
    keys = rng.sample(range(5000), 600)
    engine_a, batched = build(kind)
    assert batched.insert_many((k, tid_for(k)) for k in keys) == 600
    engine_a.sync()
    engine_b, singles = build(kind)
    for k in keys:
        singles.insert(k, tid_for(k))
    engine_b.sync()
    assert batched.items() == singles.items()
    assert len(batched.check()) == len(keys)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_delete_many_matches_singles(kind):
    keys = list(range(400))
    victims = keys[50:250]
    engine_a, batched = build(kind)
    batched.insert_many((k, tid_for(k)) for k in keys)
    assert batched.delete_many(victims) == len(victims)
    engine_a.sync()
    engine_b, singles = build(kind)
    for k in keys:
        singles.insert(k, tid_for(k))
    for k in victims:
        singles.delete(k)
    engine_b.sync()
    assert batched.items() == singles.items()
    assert len(batched.check()) == len(keys) - len(victims)


@pytest.mark.parametrize("kind", ("normal", "reorg"))
def test_insert_many_duplicate_aborts_mid_batch(kind):
    _, tree = build(kind)
    tree.insert(100, tid_for(100))
    with pytest.raises(DuplicateKeyError):
        tree.insert_many((k, tid_for(k)) for k in (10, 50, 100, 200))
    # the batch runs in sorted key order: keys before the duplicate
    # landed, the duplicate and everything after it did not
    assert tree.lookup(10) == tid_for(10)
    assert tree.lookup(50) == tid_for(50)
    assert tree.lookup(200) is None
    assert len(tree.check()) == 3


@pytest.mark.parametrize("kind", ("shadow", "hybrid"))
def test_delete_many_missing_key_aborts_mid_batch(kind):
    _, tree = build(kind)
    tree.insert_many((k, tid_for(k)) for k in range(0, 100, 2))
    with pytest.raises(KeyNotFoundError):
        tree.delete_many([2, 4, 7, 8])  # 7 was never inserted
    assert tree.lookup(2) is None and tree.lookup(4) is None
    assert tree.lookup(8) == tid_for(8)  # sorted after the miss


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cross_leaf_batch_spans_splits(kind):
    """A batch far bigger than one page forces splits mid-batch; the
    fallback single-insert path absorbs the heads that cannot fit."""
    engine, tree = build(kind)
    n = 1200
    assert tree.insert_many((k, tid_for(k)) for k in range(n)) == n
    assert tree.stats_splits > 0
    assert len(tree.check()) == n
    engine.sync()
    assert [k for k, _ in tree.items()] == list(range(n))


def test_batched_amortized_counter_counts_shared_descents():
    _, tree = build("shadow")
    tree.insert_many((k, tid_for(k)) for k in range(64))
    # 64 sorted keys into a near-empty tree share descents; every key
    # after the first on each leaf is an amortized descent saved
    assert tree._fastpath.batched_amortized > 0
    before = tree._fastpath.batched_amortized
    tree.delete_many(range(0, 64, 2))
    assert tree._fastpath.batched_amortized > before


def test_insert_many_accepts_tid_tuples():
    _, tree = build("normal")
    assert tree.insert_many([(1, (7, 3)), (2, (7, 4))]) == 2
    assert tree.lookup(1).page_no == 7


def test_batched_ops_are_the_same_served_from_bytes():
    """The batched API is a descent amortization, not a decode feature:
    it must produce identical results when every search reads the page
    bytes."""
    def run():
        engine, tree = build("reorg")
        assert tree.insert_many((k, tid_for(k)) for k in range(300)) == 300
        assert tree.delete_many(range(100, 200)) == 100
        engine.sync()
        assert len(tree.check()) == 200
        assert tree.lookup(150) is None and tree.lookup(250) == tid_for(250)
        return tree.check()

    decoded = run()
    with bytes_only():
        assert run() == decoded


def test_sharded_tree_batched_ops_route_per_shard():
    group = ShardedEngine.create(4, page_size=PAGE, seed=3)
    tree = group.create_tree("shadow", "ix", codec="uint32")
    keys = list(range(500))
    assert tree.insert_many((k, tid_for(k)) for k in keys) == 500
    group.sync_all()
    for k in (0, 123, 499):
        assert tree.lookup(k) == tid_for(k)
    assert [k for k, _ in tree.range_scan()] == keys
    assert tree.delete_many(range(100, 300)) == 200
    group.sync_all()
    assert tree.lookup(150) is None
    assert len([k for k, _ in tree.range_scan()]) == 300
