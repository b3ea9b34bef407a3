"""Batched ops: ``insert_many`` / ``delete_many`` are the single-key
sequence minus the repeated descents — same page bytes, same repairs,
same splits — and apply every key they can before raising one error that
names the rejected positions."""

import random

import pytest

from repro import DuplicateKeyError, KeyNotFoundError, StorageEngine, \
    TID, TREE_CLASSES
from repro.core import items as I
from repro.shard import ShardedEngine
from repro.storage.page import LINE_ENTRY_SIZE

from ..conftest import SMALL_PAGE, tid_for
from .helpers import all_page_bytes, bytes_only, leaf_nodes, \
    with_first_root

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


# ---------------------------------------------------------------------------
# the contract: apply every key that can be applied, then raise once
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_insert_many_applies_the_rest_and_names_the_duplicates(kind):
    _, tree = build(kind)
    tree.insert(100, tid_for(100))
    # caller order, not key order: 100 is already present, and 10 comes
    # twice — the stable sort lets the caller's first one land
    batch = [(200, TID(2, 0)), (10, TID(2, 1)), (100, TID(2, 2)),
             (50, TID(2, 3)), (10, TID(2, 4)), (300, TID(2, 5))]
    with pytest.raises(DuplicateKeyError) as err:
        tree.insert_many(batch)
    assert err.value.positions == (2, 4)
    assert tree.lookup(100) == tid_for(100)
    assert tree.lookup(10) == TID(2, 1)
    for pos in (0, 3, 5):
        assert tree.lookup(batch[pos][0]) == batch[pos][1]
    assert len(tree.check()) == 5


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_delete_many_removes_the_rest_and_names_the_missing(kind):
    _, tree = build(kind)
    tree.insert_many((k, tid_for(k)) for k in range(0, 100, 2))
    # 7 was never inserted; 8 comes twice, so its second delete misses
    with pytest.raises(KeyNotFoundError) as err:
        tree.delete_many([8, 2, 7, 4, 8])
    assert err.value.positions == (2, 4)
    assert all(tree.lookup(k) is None for k in (2, 4, 8))
    assert len(tree.check()) == 47


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_batch_whose_every_key_is_rejected_changes_nothing(kind):
    _, tree = build(kind)
    present = list(range(0, 600, 3))
    tree.insert_many((k, tid_for(k)) for k in present)
    before = tree.check()
    with pytest.raises(DuplicateKeyError) as err:
        tree.insert_many((k, TID(9, 9)) for k in reversed(present))
    assert err.value.positions == tuple(range(len(present)))
    with pytest.raises(KeyNotFoundError) as err:
        tree.delete_many(range(1, 600, 3))
    assert err.value.positions == tuple(range(len(present)))
    assert tree.check() == before


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_single_key_ops_raise_as_they_always_did(kind):
    _, tree = build(kind)
    tree.insert_many((k, tid_for(k)) for k in range(100))
    tree.lookup(50)                     # the leaf is warm and searched
    with pytest.raises(DuplicateKeyError, match="key 50 already present"):
        tree.insert(50, tid_for(50))
    tree.delete(50)
    with pytest.raises(KeyNotFoundError, match="key 50 not in index"):
        tree.delete(50)
    assert tree.lookup(50) is None
    empty = build(kind)[1]
    with pytest.raises(KeyNotFoundError, match="key 1 not in index"):
        empty.delete(1)                 # no root yet
    with pytest.raises(KeyNotFoundError) as err:
        empty.delete_many([3, 1, 2])
    assert err.value.positions == (0, 1, 2)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cross_leaf_batch_spans_splits(kind):
    """A batch far bigger than one page forces splits mid-batch; the
    run that meets a full leaf splits it with the path it holds."""
    engine, tree = build(kind)
    with_first_root(tree)
    n = 1200
    assert tree.insert_many((k, tid_for(k)) for k in range(n)) == n
    assert tree.splits.value > 0
    assert len(tree.check()) == n
    engine.sync()
    assert [k for k, _ in tree.items()] == list(range(n))


def test_batched_amortized_counter_counts_shared_descents():
    _, tree = build("shadow")
    with_first_root(tree)
    tree.insert_many((k, tid_for(k)) for k in range(64))
    # 64 sorted keys into a near-empty tree share descents; every key
    # after the first on each leaf is an amortized descent saved
    assert tree.fastpath.batched_amortized > 0
    before = tree.fastpath.batched_amortized
    tree.delete_many(range(0, 64, 2))
    assert tree.fastpath.batched_amortized > before


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


def test_sharded_tree_maps_rejected_positions_back_to_the_callers_batch():
    group = ShardedEngine.create(4, page_size=PAGE, seed=3)
    tree = group.create_tree("shadow", "ix", codec="uint32")
    present = [5, 77, 130, 402]          # spread over the shards
    tree.insert_many((k, tid_for(k)) for k in present)
    assert len({tree.shard_of(k) for k in present}) > 1
    batch = [9, 402, 10, 5, 11, 130, 12, 77, 13]
    with pytest.raises(DuplicateKeyError) as err:
        tree.insert_many((k, tid_for(k)) for k in batch)
    assert err.value.positions == (1, 3, 5, 7)
    # every shard's sub-batch was applied, the rejecting ones included
    assert all(tree.lookup(k) == tid_for(k) for k in batch)
    with pytest.raises(KeyNotFoundError) as err:
        tree.delete_many([9, 1000, 10, 2000])
    assert err.value.positions == (1, 3)
    assert tree.lookup(9) is None and tree.lookup(10) is None


# ---------------------------------------------------------------------------
# batch == singles, byte for byte
# ---------------------------------------------------------------------------

#: page size -> (even keys the ascending load inserts, largest chunk):
#: height 3 at the two small sizes, a dozen leaves at 8 KiB, and chunks
#: up to a few leaves long
LOADS = {256: (500, 60), 512: (1500, 160), 8192: (5000, 1600)}


def mixed_chunks(seed, n, big):
    """A seeded stream of ``(op, keys)`` chunks, keys in shuffled (caller)
    order.  An ascending load in uneven chunks fills the rightmost leaf
    mid-run over and over; scattered inserts straddle leaves; contiguous
    deletes several leaves long empty leaves mid-run; about a tenth of
    the keys are ones the index must reject (duplicates, in-batch
    repeats, deletes of absent keys); and the last two chunks are aimed
    at one stretch of leaves (see below)."""
    rng = random.Random(seed)
    chunks = []
    evens = list(range(0, 2 * n, 2))
    i = 0
    while i < n:
        size = rng.choice((1, 3, 17, big // 3, big))
        chunks.append(("insert", evens[i:i + size]))
        i += size
    live = set(evens)
    for _ in range(40):
        size = rng.choice((1, 2, 7, big // 4, big))
        absent = [k for k in rng.sample(range(2 * n), 3 * size)
                  if k not in live]
        roll = rng.random()
        if roll < 0.45 and absent:
            keys = absent[:size]
            keys += rng.sample(sorted(live), max(1, len(keys) // 10))
            keys.append(keys[0])                   # an in-batch pair
            chunks.append(("insert", keys))
            live.update(keys)
        elif roll < 0.75:
            ordered = sorted(live)
            start = rng.randrange(len(ordered))
            keys = ordered[start:start + size]     # leaves' worth in a row
            chunks.append(("delete", keys + absent[:len(keys) // 10]))
            live.difference_update(keys)
        else:
            keys = rng.sample(sorted(live), min(size, len(live)))
            chunks.append(("delete", keys + absent[:1]))
            live.difference_update(keys)
    # and one stretch of adjacent leaves worked over on purpose: deletes
    # leave dead item bytes on them, then a run fills every gap between
    # their keys — it meets a key that is already there mid-run, outgrows
    # the contiguous free space of leaves that compaction would have made
    # room on, and ends in splits
    ordered = sorted(live)
    stretch = ordered[len(ordered) // 2:][:big]
    chunks.append(("delete", stretch[1::3]))
    live.difference_update(stretch[1::3])
    gaps = [k for k in range(stretch[0], stretch[-1]) if k not in live]
    chunks.append(("insert", gaps + [stretch[2], stretch[-3]]))
    for _op, keys in chunks:
        rng.shuffle(keys)
    return chunks


def apply_as_singles(tree, op, keys):
    """The chunk one key at a time, in the order the batch applies it
    (stable by key); returns the rejected positions."""
    rejected = []
    for pos, key in sorted(enumerate(keys), key=lambda e: e[1]):
        try:
            if op == "insert":
                tree.insert(key, tid_for(key))
            else:
                tree.delete(key)
        except (DuplicateKeyError, KeyNotFoundError):
            rejected.append(pos)
    return tuple(sorted(rejected))


def apply_as_batch(tree, op, keys):
    try:
        if op == "insert":
            tree.insert_many((key, tid_for(key)) for key in keys)
        else:
            tree.delete_many(keys)
    except (DuplicateKeyError, KeyNotFoundError) as exc:
        return exc.positions
    return ()


def repairs(tree):
    return [(entry.kind, entry.page_no, entry.action, entry.detail)
            for entry in tree.repair_log]


@pytest.fixture
def run_shapes(monkeypatch):
    """Counts how the leaf-runs of more than one key ended: in a split,
    in a page reclaim, or at a leaf boundary with the batch unfinished."""
    from repro.core.btree_base import BLinkTree
    shapes = {"split": 0, "reclaim": 0, "boundary": 0}
    reclaims = []
    real_reclaim = BLinkTree._reclaim_empty_page

    def reclaim(tree, path, idx):
        reclaims.append(idx)
        real_reclaim(tree, path, idx)
    monkeypatch.setattr(BLinkTree, "_reclaim_empty_page", reclaim)
    for name in ("_insert_run", "_delete_run"):
        def run(tree, batch, i, rejected, real=getattr(BLinkTree, name)):
            before = tree.splits.value, len(reclaims)
            j = real(tree, batch, i, rejected)
            if j - i > 1:
                if tree.splits.value > before[0]:
                    shapes["split"] += 1
                elif len(reclaims) > before[1]:
                    shapes["reclaim"] += 1
                elif j < len(batch):
                    shapes["boundary"] += 1
            return j
        monkeypatch.setattr(BLinkTree, name, run)
    return shapes


@pytest.mark.parametrize("page_size", sorted(LOADS))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batches_leave_the_bytes_singles_leave(kind, page_size, run_shapes):
    """The same seeded stream, once key by key and once chunk by chunk:
    after every sync the two files are byte-identical page for page, with
    the same repair log, split count and rejected positions.  Both trees
    start with a root, so the first chunk splits like the rest rather
    than being built bottom-up (which the loader tests below cover)."""
    trees = []
    for _ in range(2):
        engine = StorageEngine.create(page_size=page_size, seed=31)
        trees.append((engine, with_first_root(TREE_CLASSES[kind].create(
            engine, "ix", codec="uint32"))))
    (engine_s, singles), (engine_b, batched) = trees
    for n, (op, keys) in enumerate(mixed_chunks(page_size,
                                                *LOADS[page_size])):
        splits_before = run_shapes["split"]
        rejected = apply_as_batch(batched, op, keys)
        assert rejected == apply_as_singles(singles, op, keys), (n, op)
        if n % 3 == 2:
            engine_s.sync()
            engine_b.sync()
            assert all_page_bytes(batched) == all_page_bytes(singles), n
            assert repairs(batched) == repairs(singles)
            assert batched.splits.value == singles.splits.value
    # the last chunk, the aimed run, met both its duplicates and split
    assert len(rejected) == 2 and run_shapes["split"] > splits_before
    engine_s.sync()
    engine_b.sync()
    assert all_page_bytes(batched) == all_page_bytes(singles)
    assert batched.check() == singles.check()
    if page_size < 8192:
        assert batched.height >= 3
    # the stream really did what its docstring says, in the batched leg
    assert run_shapes["split"] > 5
    assert run_shapes["reclaim"] > 0
    assert run_shapes["boundary"] > 5


# ---------------------------------------------------------------------------
# an empty tree is built bottom-up: the same index on fewer, fuller pages
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("page_size", (256, 512, 8192))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_built_tree_holds_what_inserts_leave(kind, page_size):
    """One shuffled batch with in-batch repeats, once into an empty tree
    (the loader) and once into a rooted one (the split path): the same
    rejected positions, scans, lookups and validator output, on fewer
    pages, every leaf but the last too full for one more key."""
    rng = random.Random(page_size)
    keys = rng.sample(range(50_000), 3000)
    batch = [(k, tid_for(k)) for k in keys + keys[:200:7]]
    rng.shuffle(batch)
    trees = []
    for rooted in (False, True):
        engine = StorageEngine.create(page_size=page_size, seed=7)
        tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
        if rooted:
            with_first_root(tree)
        with pytest.raises(DuplicateKeyError) as err:
            tree.insert_many(batch)
        engine.sync()
        trees.append((tree, err.value.positions))
    (built, built_rejected), (inserted, inserted_rejected) = trees
    assert built_rejected == inserted_rejected and len(built_rejected) == 29
    assert built.splits.value == 0 < inserted.splits.value
    assert list(built.range_scan()) == list(inserted.range_scan()) \
        == sorted((k, tid_for(k)) for k in set(keys))
    assert built.check() == inserted.check()
    for key in keys[::13] + [50_001, 50_002]:
        assert built.lookup(key) == inserted.lookup(key)
    assert built.file.n_pages < inserted.file.n_pages
    leaves = leaf_nodes(built)
    item = LINE_ENTRY_SIZE + len(I.pack_leaf_item(b"\0" * 4, TID(0, 0)))
    reserve = built._page_reserve(0)
    assert all(node.upper - node.lower - reserve < item
               for node in leaves[:-1])
