"""Shared machinery for crash/recovery tests."""

from __future__ import annotations

import random

from repro import (
    CrashError,
    CrashOnceKeepingPages,
    StorageEngine,
    TID,
    TREE_CLASSES,
)
from repro.core.nodeview import NodeView
from repro.shard import ShardedEngine
from repro.storage.crash import CrashOnNthSync, RandomSubsetCrash
from repro.storage.sync import tokens_match
from repro.wal import GroupLogicalLoggingTree

PAGE = 512


def tid_for(i: int) -> TID:
    return TID(1 + (i >> 8), i & 0xFF)


def build_to_split(kind: str, *, seed: int = 11, committed_keys: int = 96,
                   page_size: int = PAGE, descending: bool = False):
    """Build a tree with *committed_keys* synced keys, then keep inserting
    (no sync) until exactly one more leaf split happens.  With
    *descending* the uncommitted keys count down from ``3 *
    committed_keys``, so the split cuts its page in the middle, among the
    committed keys, instead of keeping four fifths on the left as an
    appending split does (DESIGN §5o).

    Returns ``(engine, tree, committed, uncommitted, split_info)`` where
    ``split_info`` identifies the pages of the in-flight split: the
    reorganized/old slot, the new sibling, and the parent.
    """
    engine = StorageEngine.create(page_size=page_size, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    committed = []
    for i in range(committed_keys):
        tree.insert(i, tid_for(i))
        if (i + 1) % 32 == 0:
            engine.sync()
    engine.sync()
    committed_set = set(committed or range(committed_keys))

    uncommitted = []
    splits_before = tree.splits.value
    i, step = ((3 * committed_keys, -1) if descending
               else (committed_keys, 1))
    while tree.splits.value == splits_before:
        tree.insert(i, tid_for(i))
        uncommitted.append(i)
        i += step
    return engine, tree, committed_set, set(uncommitted), find_split(tree)


def find_split(tree) -> dict:
    """Locate the pages of the most recent split by inspection.

    For the reorg tree: ``pa`` is the reorganized page (live + backup),
    ``pb`` its ``newPage`` sibling.  For the shadow tree: ``old`` is the
    dead pre-split page (its buffer advertises the replacement through
    ``newPage``), ``pa`` the new low half, ``pb`` the new high half.
    """
    token = tree.engine.sync_state.token()
    info = {"pa": None, "pb": None, "parent": None, "old": None}
    file = tree.file
    for page_no in range(1, file.n_pages):
        buf = file.pin(page_no)
        try:
            view = NodeView(buf.data, tree.page_size)
            if not tokens_match(view.sync_token, token) or not view.is_leaf:
                continue
            if view.prev_n_keys:                    # reorg Pa
                info["pa"] = page_no
                info["pb"] = view.new_page or None
            elif view.new_page:                     # shadow dead P
                info["old"] = page_no
                info["pa"] = view.new_page
        finally:
            file.unpin(buf)
    if info["pa"] is not None and info["pb"] is None:
        buf = file.pin(info["pa"])
        try:
            view = NodeView(buf.data, tree.page_size)
            if tokens_match(view.sync_token, token) and view.right_peer:
                info["pb"] = view.right_peer
        finally:
            file.unpin(buf)
    # the parent is whatever internal page routes to pa
    root = tree._root_page()
    stack = [root]
    target = info["pa"]
    while stack and target:
        page_no = stack.pop()
        buf = file.pin(page_no)
        try:
            view = NodeView(buf.data, tree.page_size)
            if view.is_leaf:
                continue
            children = [view.child_at(i) for i in range(view.n_keys)]
            if target in children:
                info["parent"] = page_no
            stack.extend(children)
        finally:
            file.unpin(buf)
    return info


def crash_keeping(engine, tree, file_name: str, keep_pages) -> None:
    """Sync with a policy that persists only *keep_pages* of this file
    (control-file pages always survive: they are written synchronously)."""
    policy = CrashOnceKeepingPages({(file_name, p) for p in keep_pages})
    try:
        engine.sync(policy)
    except CrashError:
        return
    raise AssertionError("expected the sync to crash")


def verify_recovered(kind: str, engine, committed, *,
                     insert_from: int = 10_000,
                     inserts: int = 60, tids=None) -> None:
    """The recovery contract: reopen, find every committed key, accept new
    work, and end structurally sound.  With *tids* (committed key -> the
    set of TIDs it may hold) each committed key must also come back
    holding one of them, through both ``lookup`` and ``range_scan``."""
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[kind].open(engine2, "ix")
    found = {k: tree2.lookup(k) for k in committed}
    missing = [k for k, tid in found.items() if tid is None]
    assert not missing, f"committed keys lost: {sorted(missing)[:10]}"
    scanned = list(tree2.range_scan())
    values = [v for v, _ in scanned]
    assert values == sorted(set(values)), "scan unsorted or duplicated"
    assert committed <= set(values), "scan lost committed keys"
    if tids is not None:
        in_scan = dict(scanned)
        wrong = sorted(k for k in committed
                       if found[k] not in tids[k] or in_scan[k] not in tids[k])
        assert not wrong, \
            f"committed keys hold a TID no write gave them: {wrong[:10]}"
    for key in range(insert_from, insert_from + inserts):
        tree2.insert(key, tid_for(key))
    engine2.sync()
    pairs = tree2.check(strict_tokens=False, require_peer_chain=False)
    found = {int.from_bytes(k, "big") for k, _ in pairs}
    assert committed <= found
    assert set(range(insert_from, insert_from + inserts)) <= found
    return tree2


def build_wal_group(n_shards: int, *, committed_keys: int, tail_keys: int,
                    page_size: int = PAGE, seed: int = 0,
                    commit_every: int = 200):
    """A crashed group whose log holds the full recovery recipe.

    Even values ``0, 2, 4, ...`` are loaded in chunked transactions that
    commit cleanly — each commit syncs every shard and appends its
    SYNC_MARK, so these records are durably covered and elidable.  Then
    one big tail transaction inserts *odd* values spread across the
    whole key space (so its redo touches cold leaves everywhere), its
    COMMIT is forced to the log, and every shard's commit sync crashes
    keeping nothing: the tail is committed-but-unsynced — exactly the
    work log-based recovery owes, and exactly what the log-less repair
    sweep cannot get back.

    Returns ``(group, wal, committed, tail)``; the index is ``"ix"``.
    """
    group = ShardedEngine.create(n_shards, page_size=page_size, seed=seed)
    wal = GroupLogicalLoggingTree.create(group, "ix", kind="shadow")

    committed = [2 * i for i in range(committed_keys)]
    xid = 0
    for start in range(0, len(committed), commit_every):
        xid += 1
        wal.current_xid = xid
        for value in committed[start: start + commit_every]:
            wal.insert(value, TID(1 + (value >> 9), value & 0xFF))
        crashed = wal.commit()
        assert not crashed, f"load-phase commit crashed shards {crashed}"

    rng = random.Random(seed * 31 + n_shards)
    tail = [2 * j + 1
            for j in rng.sample(range(committed_keys), tail_keys)]
    xid += 1
    wal.current_xid = xid
    for value in tail:
        wal.insert(value, TID(7, value & 0xFF))
    for index in range(n_shards):
        group.shard(index).crash_policy = CrashOnNthSync(1, keep=0)
    crashed = wal.commit()
    assert sorted(crashed) == list(range(n_shards)), \
        f"every shard should crash its commit sync, got {crashed}"
    return group, wal, committed, tail


def build_crashed_group(n_shards: int, *, total_keys: int,
                        page_size: int = PAGE, seed: int = 0,
                        uncommitted: int | None = None,
                        sync_every: int = 100,
                        crash_seed: int | None = None) -> ShardedEngine:
    """Load *total_keys* committed keys into an N-shard group, syncing
    the group every *sync_every* keys, then crash every shard mid-sync
    with an uncommitted batch in flight.

    Shard ``i`` persists a random subset of its batch, seeded
    ``crash_seed + i`` (``seed * 13 + i`` by default).  The index is
    ``"ix"``.
    """
    group = ShardedEngine.create(n_shards, page_size=page_size, seed=seed)
    tree = group.create_tree("shadow", "ix", codec="uint32")
    for i in range(total_keys):
        tree.insert(i, tid_for(i))
        if (i + 1) % sync_every == 0:
            group.sync_all()
    group.sync_all()

    if uncommitted is None:
        uncommitted = max(total_keys // 8, 8 * n_shards)
    if crash_seed is None:
        crash_seed = seed * 13
    for index in range(n_shards):
        group.shard(index).crash_policy = RandomSubsetCrash(
            p=1.0, seed=crash_seed + index)
    for j in range(uncommitted):
        try:
            tree.insert(total_keys + j, TID(7, j % 100))
        except CrashError:
            continue    # that shard is down; keep dirtying the others
    for index in list(group.live_shards()):
        try:
            group.shard(index).sync()
        except CrashError:
            pass
    assert not group.live_shards(), "every shard should have crashed"
    return group
