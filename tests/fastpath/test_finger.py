"""Leaf finger: hit/flush accounting, structural invalidation, and
op-for-op equivalence with the descent path."""

import random

import pytest

from repro import DuplicateKeyError, KeyNotFoundError, StorageEngine, \
    TREE_CLASSES

from ..conftest import SMALL_PAGE, fill_tree, tid_for
from .helpers import assert_all_nodes_match_bytes, bytes_only

PAGE = SMALL_PAGE
ALL_KINDS = ("normal", "shadow", "reorg", "hybrid")


def build(kind, *, seed=5, n=0):
    engine = StorageEngine.create(page_size=PAGE, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    if n:
        fill_tree(tree, range(n))
    return engine, tree


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_repeated_lookup_hits_finger(kind):
    _, tree = build(kind, n=200)
    # touch 57's leaf with an update first: a reorg leaf may hold
    # backup keys from its split, and the finger (correctly) refuses
    # to serve until the Section 3.4 reclamation check has run
    tree.delete(57)
    tree.insert(57, tid_for(57))
    assert tree.lookup(57) == tid_for(57)
    before = tree.stats_finger_hits
    for _ in range(5):
        assert tree.lookup(57) == tid_for(57)
    assert tree.stats_finger_hits >= before + 5


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sequential_append_keeps_finger_hot(kind):
    """The rightmost leaf serves past its max key (no right peer), so an
    ascending load should run mostly on the finger."""
    engine, tree = build(kind)
    for i in range(400):
        tree.insert(i, tid_for(i))
    assert tree.stats_finger_hits > 200


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_split_invalidates_finger_stamp(kind):
    engine, tree = build(kind, n=40)
    tree.lookup(0)  # establish a finger with the pre-split stamp
    stamp = tree._fastpath.finger_stamp
    assert stamp is not None
    splits = tree.stats_splits
    i = 40
    while tree.stats_splits == splits:
        tree.insert(i, tid_for(i))
        i += 1
    # the split changed the stamp: a stale finger can never serve
    assert tree._fp_stamp() != stamp
    flushes = tree.stats_finger_flushes
    tree.lookup(0)
    assert (tree._fastpath.finger_stamp == tree._fp_stamp()
            or tree._fastpath.finger_page is None)
    assert tree.stats_finger_flushes >= flushes


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_reclaim_flushes_finger(kind):
    _, tree = build(kind, n=300)
    tree.lookup(10)
    epoch = tree._fp_epoch
    for i in range(300):
        tree.delete(i)
    assert tree._fp_epoch > epoch  # reclamations bumped the epoch
    assert len(tree.items()) == 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_finger_ops_raise_like_descent(kind):
    _, tree = build(kind, n=100)
    tree.lookup(50)  # establish a finger over 50's leaf
    with pytest.raises(DuplicateKeyError):
        tree.insert(50, tid_for(50))
    tree.delete(50)
    with pytest.raises(KeyNotFoundError):
        tree.delete(50)  # finger-served delete of a missing key
    assert tree.lookup(50) is None


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mixed_ops_match_the_byte_path(kind):
    """Oracle test: the same randomized op sequence served from decoded
    nodes and served from the page bytes must leave identical indexes."""
    rng = random.Random(99)
    ops = []
    live = set()
    universe = list(range(2000))
    for _ in range(1500):
        roll = rng.random()
        if roll < 0.55 or not live:
            key = rng.choice(universe)
            if key not in live:
                live.add(key)
                ops.append(("insert", key))
        elif roll < 0.8:
            key = rng.choice(sorted(live))
            live.discard(key)
            ops.append(("delete", key))
        else:
            ops.append(("lookup", rng.choice(universe)))

    def apply():
        engine, tree = build(kind, seed=7)
        out = []
        for i, (op, key) in enumerate(ops):
            if op == "insert":
                tree.insert(key, tid_for(key))
            elif op == "delete":
                tree.delete(key)
            else:
                out.append(tree.lookup(key))
            if i % 97 == 0:
                engine.sync()
        engine.sync()
        assert_all_nodes_match_bytes(tree)
        return out, tree.check(), sorted(k for k, _ in tree.items())

    decoded = apply()
    with bytes_only():
        from_bytes = apply()
    assert decoded == from_bytes
