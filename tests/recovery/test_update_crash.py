"""``update`` is crash-atomic.

``BLinkTree.update`` rewrites a present key's six TID bytes in place, so
every image of its leaf a sync can persist holds the key, with the
committed TID or the new one.  The oracle is ``perf/oracle.py``'s rule for
a key written again after its last commit: it may hold either value, and
it may never be missing.

The regression is the case delete-then-insert lost.  The delete emptied
the key's leaf; reclaiming it ran the parent's reclamation check, and a
parent reorganised by a split in the open window blocks for a sync there
(Section 3.4, case 1).  That sync made the emptied leaf durable while the
re-insert lived only in the buffer pool, so a crash of the next sync lost
a committed key.
"""

import random

import pytest

from repro import CrashError, CrashOnNthSync, StorageEngine, TID, \
    TREE_CLASSES
from repro.shard import ShardedEngine
from repro.storage import RecordingPolicy

from .helpers import PAGE, crash_keeping, tid_for, verify_recovered

NEW_TID = TID(77, 7)


def alone_under_a_split_parent(tree, live):
    """A live key alone on its leaf, whose parent page split by
    reorganisation since the last sync (its backup keys still live)."""
    state = tree.engine.sync_state
    for key in live:
        path = tree._descend(tree.codec.encode(key))
        try:
            parent = path[-2].node
            if path[-1].node.n_keys == 1 and parent.prev_n_keys \
                    and state.is_current(parent.sync_token):
                return key
        finally:
            tree._unpin_path(path)
    return None


def build_case_one_update(kind, seed):
    """On a one-shard group, as a server updates: insert 0, 4, ..., 1196
    and sync; delete a seeded 80% and sync; then insert uncommitted odd
    keys from the bottom of that range up until a parent page holding a
    key alone on its leaf has split by reorganisation.  (Keys above the
    range would split only the right edge, whose pages keep four fifths
    of their entries live, DESIGN §5o, and hold no such leaf at every
    seed.)  Returns ``(engine, sharded, live, key)``."""
    group = ShardedEngine.create(1, page_size=256, seed=seed)
    sharded = group.create_tree(kind, "ix", codec="uint32")
    engine, tree = group.shard(0), sharded.trees[0]
    keys = range(0, 1200, 4)
    for key in keys:
        tree.insert(key, tid_for(key))
    engine.sync()
    gone = set(random.Random(seed).sample(keys, len(keys) * 4 // 5))
    for key in sorted(gone):
        tree.delete(key)
    engine.sync()
    live = [key for key in keys if key not in gone]
    for j in range(200):
        tree.insert(1 + 2 * j, TID(9, j))
        if j + 1 >= 20:
            key = alone_under_a_split_parent(tree, live)
            if key is not None:
                return engine, sharded, live, key
    raise AssertionError("no parent page split by reorganisation")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["reorg", "hybrid"])
def test_update_under_a_case_one_parent_survives_a_crash(kind, seed):
    engine, sharded, live, key = build_case_one_update(kind, seed)
    syncs = engine.syncs_completed.value
    assert sharded.update(key, NEW_TID) is True
    forced = engine.syncs_completed.value - syncs
    crash_keeping(engine, sharded, "ix", [])
    tids = {k: {tid_for(k)} for k in live}
    tids[key].add(NEW_TID)
    verify_recovered(kind, engine, set(live), tids=tids)
    # one leaf write: no page reclaimed, so no sync forced mid-operation
    assert forced == 0


# ---------------------------------------------------------------------------
# a window of updates, crashed losing one page or keeping one
# ---------------------------------------------------------------------------

COMMITTED = range(0, 288, 3)


def build_update_window(kind):
    """96 committed keys, synced; then a window that updates every other
    one and, on the trees that recover splits, upserts the 64 absent keys
    below 96 — enough to split leaves.  Returns ``(engine, committed,
    window)``, the keys mapped to their committed and window TIDs."""
    engine = StorageEngine.create(page_size=PAGE, seed=5)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    committed = {key: tid_for(key) for key in COMMITTED}
    for key, tid in committed.items():
        tree.insert(key, tid)
    engine.sync()
    window = {key: TID(50, key & 0xFF) for key in COMMITTED[::2]}
    if kind != "normal":
        window.update((key, TID(60, key & 0xFF))
                      for key in range(96) if key % 3)
    splits = tree.splits.value
    for key, tid in window.items():
        assert tree.update(key, tid) is (key in committed)
    assert (tree.splits.value > splits) is (kind != "normal")
    return engine, committed, window


@pytest.mark.parametrize("kind", ["normal", "shadow", "reorg", "hybrid"])
def test_update_window_crashes_keep_a_committed_or_window_tid(kind):
    probe, _committed, _window = build_update_window(kind)
    recorder = RecordingPolicy()
    probe.sync(recorder)
    batch = recorder.batches[0]
    assert len(batch) >= 3
    keeps = [[pid for pid in batch if pid != lost] for lost in batch]
    keeps += [[kept] for kept in batch]
    for keep in keeps:
        engine, committed, window = build_update_window(kind)
        with pytest.raises(CrashError):
            engine.sync(CrashOnNthSync(1, keep=keep))
        tids = {key: {tid, window.get(key, tid)}
                for key, tid in committed.items()}
        tree2 = verify_recovered(kind, engine, set(committed), tids=tids,
                                 inserts=12)
        for key, tid in window.items():
            if key not in committed:
                assert tree2.lookup(key) in (None, tid), (keep, key)
