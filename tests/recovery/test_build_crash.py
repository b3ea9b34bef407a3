"""Crash safety of the bottom-up build and of a tree's first sync.

``insert_many`` into a tree with no root builds it bottom-up and moves
the meta page's root pointer last.  Until a sync completes after that,
no key of the tree is committed, so whatever subset of that sync reaches
the disk, recovery must end in a sound tree holding either no key or
every built key (DESIGN §5b's first-sync invariant, §5n).  The same
holds for a tree grown by single inserts inside its first sync, which
used to fail recovery outright once it reached height 3.

Once committed, a built tree is an ordinary one with every leaf full:
the split and crash campaigns below run over it as the existing ones run
over inserted trees, and nearly every insert splits.
"""

import random

import pytest

from repro import CrashError, CrashOnNthSync, StorageEngine, TREE_CLASSES
from repro.shard import RecoveryOrchestrator, ShardedEngine
from repro.storage import RandomSubsetCrash, RecordingPolicy, \
    SubsetEnumerator

from .helpers import tid_for, verify_recovered

RECOVERABLE = ("shadow", "reorg", "hybrid")

#: 256-byte pages: 12-13 uint32 keys a leaf.  HEIGHT2 keys build six
#: leaves under one root (a sync of eight pages with the meta page, 256
#: subsets); HEIGHT3 keys build a three-level tree.
PAGE = 256
HEIGHT2 = 70
HEIGHT3 = 400


def built(kind, n, *, seed=3):
    engine = StorageEngine.create(page_size=PAGE, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    assert tree.insert_many((k, tid_for(k)) for k in range(n)) == n
    return engine, tree


def assert_all_or_nothing(kind, engine, n):
    """Recover the crashed engine; the tree is sound and holds no key or
    all *n*, and takes new work either way."""
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree = TREE_CLASSES[kind].open(engine2, "ix")
    assert tree.drive_repairs() in (0, n)
    keys = [int.from_bytes(k, "big") for k, _ in tree.check()]
    assert keys in ([], list(range(n))), (len(keys), keys[:5])
    probe = n // 2
    assert tree.lookup(probe) == (tid_for(probe) if keys else None)
    # an empty result is the empty tree: the next batch builds it again
    extra = range(n, n + 40)
    tree.insert_many((k, tid_for(k)) for k in extra)
    engine2.sync()
    assert [int.from_bytes(k, "big") for k, _ in tree.check()] \
        == keys + list(extra)


@pytest.mark.parametrize("kind", RECOVERABLE)
def test_every_subset_of_a_height2_build_sync(kind):
    probe_engine, probe = built(kind, HEIGHT2)
    assert probe.height == 2
    recorder = RecordingPolicy()
    probe_engine.sync(recorder)
    batch = recorder.batches[0]
    assert len(batch) <= 10
    subsets = list(SubsetEnumerator(batch).subsets())
    assert len(subsets) == 2 ** len(batch)
    for subset in subsets[:-1]:            # the last one is the whole sync
        engine, _tree = built(kind, HEIGHT2)
        with pytest.raises(CrashError):
            engine.sync(CrashOnNthSync(1, keep=list(subset)))
        assert_all_or_nothing(kind, engine, HEIGHT2)


@pytest.mark.parametrize("kind", RECOVERABLE)
def test_random_subsets_of_a_height3_build_sync(kind):
    rng = random.Random(kind)
    for _ in range(24):
        engine, tree = built(kind, HEIGHT3)
        assert tree.height == 3
        with pytest.raises(CrashError):
            engine.sync(RandomSubsetCrash(p=1.0, seed=rng.randrange(1 << 30)))
        assert_all_or_nothing(kind, engine, HEIGHT3)


@pytest.mark.parametrize("kind", RECOVERABLE)
def test_a_sync_before_first_use_does_not_commit_a_crashed_build(kind):
    """The crashed build's meta page and root persist, its first leaf
    does not.  After the restart a sync completes — driven by work on
    another tree of the engine — before the built tree is first read.
    That sync must not clear the first-sync flag over the partial build:
    the tree is empty from the moment it is opened, for every reader."""
    engine = StorageEngine.create(page_size=PAGE, seed=5)
    cls = TREE_CLASSES[kind]
    other = cls.create(engine, "other", codec="uint32")
    other.insert_many((k, tid_for(k)) for k in range(10))
    engine.sync()
    tree = cls.create(engine, "ix", codec="uint32")
    tree.insert_many((k, tid_for(k)) for k in range(HEIGHT2))
    assert tree.height == 2
    # the build allocates its leaves first: page 1 is the leftmost leaf
    with pytest.raises(CrashError):
        engine.sync(CrashOnNthSync(1, keep=lambda batch: [
            pid for pid in batch if pid != ("ix", 1)]))
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree = cls.open(engine2, "ix")
    other = cls.open(engine2, "other")
    other.insert(99, tid_for(99))
    engine2.sync()
    assert tree.check() == []
    assert tree.drive_repairs() == 0
    assert list(tree.range_scan()) == []
    assert tree.lookup(HEIGHT2 // 2) is None
    assert [int.from_bytes(k, "big") for k, _ in other.check()] \
        == list(range(10)) + [99]


@pytest.mark.parametrize("seed", [8, 9, 18, 32, 39])
@pytest.mark.parametrize("kind", RECOVERABLE)
def test_a_tree_crashed_in_its_first_sync_recovers_empty(kind, seed):
    """Single inserts grow the tree to height 3 inside its first sync,
    which then crashes: no key was ever committed.  The shadow tree at
    these seeds used to stop with "no previous page recorded and the
    lost child is internal"."""
    group = ShardedEngine.create(1, page_size=PAGE, seed=seed)
    tree = group.create_tree(kind, "ix", codec="uint32")
    for key in range(1500):
        tree.insert(key, tid_for(key))
    group.shard(0).crash_policy = RandomSubsetCrash(p=0.5, seed=seed)
    with pytest.raises(CrashError):
        group.sync_shard(0)
    group, report = RecoveryOrchestrator().recover(group, "ix")
    assert report.ok, [r.error for r in report.shards]
    recovered = group.open_tree("ix")
    assert list(recovered.range_scan()) == []
    assert recovered.lookup(700) is None


def committed_build(kind, *, seed, n=200, page_size=512):
    """A built tree of the even keys below ``2 * n``, synced."""
    engine = StorageEngine.create(page_size=page_size, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    tree.insert_many((k, tid_for(k)) for k in range(0, 2 * n, 2))
    engine.sync()
    return engine, tree


@pytest.mark.parametrize("kind", RECOVERABLE)
def test_every_subset_of_a_split_sync_over_a_built_tree(kind):
    """One odd key into a full built leaf splits it; every subset of the
    sync that would commit the split recovers every built key."""
    def scenario():
        engine, tree = committed_build(kind, seed=21, n=64)
        splits = tree.splits.value
        tree.insert(61, tid_for(61))
        assert tree.splits.value == splits + 1
        return engine
    recorder = RecordingPolicy()
    scenario().sync(recorder)
    batch = recorder.batches[0]
    assert 3 <= len(batch) <= 8
    committed = set(range(0, 128, 2))
    for subset in list(SubsetEnumerator(batch).subsets())[:-1]:
        engine = scenario()
        with pytest.raises(CrashError):
            engine.sync(CrashOnNthSync(1, keep=list(subset)))
        verify_recovered(kind, engine, committed, inserts=12)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", RECOVERABLE)
def test_crash_campaign_over_a_built_tree(kind, seed):
    """Random inserts and deletes over a committed built tree, a sync
    every 20 operations, each sync crashing with probability 0.3 and
    persisting a random subset: no committed key is lost, no committed
    delete comes back."""
    engine, tree = committed_build(kind, seed=seed)
    engine.crash_policy = RandomSubsetCrash(p=0.3, seed=seed * 13 + 7)
    rng = random.Random(seed)
    committed = set(range(0, 400, 2))
    live, deleted = set(committed), set()
    pending = []
    try:
        for op in range(1, 400):
            key = rng.randrange(600)
            if key in live:
                tree.delete(key)
                live.discard(key)
            else:
                tree.insert(key, tid_for(key))
                live.add(key)
            pending.append(key)
            if op % 20 == 0:
                engine.sync()
                committed = set(live)
                deleted.update(k for k in pending if k not in live)
                deleted -= live
                pending = []
    except CrashError:
        pass
    else:
        pytest.skip("no crash at this seed")
    unsure = set(pending)
    tree2 = verify_recovered(kind, engine, committed - unsure)
    found = {int.from_bytes(k, "big")
             for k, _ in tree2.check(strict_tokens=False,
                                     require_peer_chain=False)}
    assert not (found & (deleted - unsure))


# ---------------------------------------------------------------------------
# three repairs that full leaves exposed (shrunk from the stateful model)
# ---------------------------------------------------------------------------

class Harness:
    """The stateful model test's setup without the model: 400 even keys
    built on 512-byte pages under a four-frame pool, and its restarts."""

    def __init__(self, kind):
        self.kind = kind
        self.engine = StorageEngine.create(page_size=512, seed=23,
                                           pool_capacity=4)
        self.tree = TREE_CLASSES[kind].create(self.engine, "ix",
                                              codec="uint32")
        self.tree.insert_many((k, tid_for(k)) for k in range(0, 800, 2))
        self.engine.sync()

    def crash(self, seed):
        with pytest.raises(CrashError):
            self.engine.sync(RandomSubsetCrash(p=1.0, seed=seed))
        self.engine = StorageEngine.reopen_after_crash(self.engine)
        self.tree = TREE_CLASSES[self.kind].open(self.engine, "ix")
        self.tree.drive_repairs()
        self.engine.sync()

    def clean_reopen(self):
        self.tree.close_clean()
        self.engine.shutdown()
        self.engine = StorageEngine.reopen(self.engine)
        self.tree = TREE_CLASSES[self.kind].open(self.engine, "ix")

    def keys(self, lo=0, hi=None):
        return [k for k, _ in self.tree.range_scan(lo, hi)]


def test_a_heal_never_links_a_live_leaf_to_an_orphan():
    """Adjacent leaves split in one window; the crash keeps their
    neighbours' restamped links but not the parent, so the chain runs
    through orphan halves.  Healing a link *from* an orphan used to
    point the live leaf back at it, splicing the orphan in for good: a
    delete then went to the live leaf and a scan still saw the key."""
    h = Harness("shadow")
    h.tree.insert_many((k, tid_for(k)) for k in (5, 77, 253, 367, 767))
    h.tree.insert_many((k, tid_for(k)) for k in (497, 621, 627))
    h.crash(16048)
    h.tree.delete_many([192])
    assert 192 not in h.keys(136, 211)
    assert h.keys(136, 211) == [k for k in range(136, 211, 2) if k != 192]


def test_a_lost_low_half_is_rebuilt_from_its_right():
    """Key 121 falls in the low half of a full reorg leaf, so the new
    page takes the low half, left of the reorganized one.  The crash
    keeps the parent but loses the new page: its committed keys sit to
    its right, on the un-split original, and used to be rebuilt empty
    from the left."""
    h = Harness("reorg")
    h.clean_reopen()
    h.tree.insert_many([(121, tid_for(121))])
    h.crash(0)
    for key in range(0, 800, 2):
        assert h.tree.lookup(key) == tid_for(key), key


def test_a_redone_split_stamps_its_surviving_half():
    """A crash keeps a reorg split's new page and its parent but not the
    reorganized page, so recovery redoes the split onto the surviving
    half.  That half kept the older token, and after the next crash the
    backup's resolution took it for lost and regenerated it from the
    backup — bringing back a key deleted and synced in between."""
    h = Harness("reorg")
    for _ in range(2):
        h.clean_reopen()
    for seed in (0, 65536):
        h.crash(seed)
    h.clean_reopen()
    for seed in (9450, 1130):
        h.crash(seed)
    h.clean_reopen()
    for seed in (41895, 2492):
        h.crash(seed)
    h.tree.insert_many([(471, tid_for(471))])
    h.crash(143)
    h.tree.delete_many([460])
    h.engine.sync()
    h.crash(242)
    assert 460 not in {int.from_bytes(k, "big") for k, _ in h.tree.check(
        strict_tokens=False, require_peer_chain=False)}
