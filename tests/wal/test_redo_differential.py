"""Cut-and-run redo against the per-record reference, state for state.

The product plans from each shard's cut and redoes the tail a same-kind
run at a time through ``insert_many`` / ``delete_many``;
``reference_redo.py`` visits every record and redoes each one singly in
LSN order.  On seeded logs that interleave inserts, deletes, re-inserts
and double deletes of the same keys, duplicate inserts, two winner
transactions and a loser, with clean commits behind and a torn sync
underneath, both must leave the same index: same ``range_scan``, same
``applied`` / ``out_of_order`` / ``skipped_uncommitted`` / ``elided``,
clean fsck — and page bytes equal to the reference applied run by run in
key order, the one thing a batch is allowed to change (a line table
records insertion order).
"""

import random

import pytest

from repro import CrashError, StorageEngine
from repro.core import open_tree
from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.shard import RecoveryOrchestrator, ShardedEngine
from repro.storage import RandomSubsetCrash
from repro.tools.fsck import fsck_group, fsck_tree
from repro.wal import (
    GroupLogicalLoggingTree,
    LogicalLoggingTree,
    RecordKind,
    logical_redo,
)
from repro.wal import parallel
from repro.wal.parallel import PartitionStats

from ..conftest import tid_for
from ..fastpath.helpers import all_page_bytes
from .reference_redo import reference_plan, reference_replay_partition

KINDS = ("shadow", "reorg", "hybrid")
#: winner key range per page size: enough for several leaves per shard
KEYS = {256: 300, 512: 500, 4096: 1500}
SEEDS = [5, 7, 12, 13, 21]
#: ``visited`` is left out: it is where the two are meant to differ
COUNTS = ("records", "applied", "elided", "out_of_order",
          "skipped_uncommitted")


def drive(wal, seed: int, n_keys: int, sync) -> set[int]:
    """Log a seeded history through *wal* (either logging tree) up to,
    not including, its last commit; returns the winner keys that must be
    in the index once every committed record is redone.  *sync* syncs
    the index behind the log's back: durable, but no SYNC_MARK says so.

    Bursts of one kind (so redo sees runs of 1 to 40) over a key range
    small enough that inserts hit live keys, deletes hit missing ones
    and deleted keys come back — the tree refuses those at run time but
    the record is already logged, as a real data manager's would be.
    Winners share ``[0, n_keys)``; the loser keeps to its own range, as
    record locks would make it, so what redo owes is well defined.
    A key always maps to ``tid_for(key)``: redo from the start of the
    log (the single tree logs no marks) must stay conflict-free.
    """
    rng = random.Random(seed)
    live: set[int] = set()
    loser = 99
    lo_range = n_keys + n_keys // 4

    def burst(xids: list[int], ops: int, deletes: bool = True) -> None:
        done = 0
        while done < ops:
            insert = rng.random() < 0.6 or not deletes
            for _ in range(rng.randint(1, 40)):
                wal.current_xid = xid = rng.choice(xids)
                key = (rng.randrange(n_keys, lo_range) if xid == loser
                       else rng.randrange(n_keys))
                try:
                    if insert:
                        wal.insert(key, tid_for(key))
                        live.add(key)
                    else:
                        wal.delete(key)
                        live.discard(key)
                except (DuplicateKeyError, KeyNotFoundError):
                    pass
                done += 1

    # clean commits: synced, and SYNC_MARKed where the log has marks
    for xid in (1, 2, 3):
        burst([xid, xid, xid, loser], n_keys // 2)
        wal.current_xid = xid
        assert not wal.commit()
    # the tail no mark covers: two winners and the loser interleaved.
    # Most of it did reach the disk (redo finds it there), the last
    # stretch is what the torn sync leaves in pieces — kept to a split
    # or two, the size at which the repairs under redo are sound at
    # every page size (ROADMAP item 1)
    for _ in range(4):
        burst([4, 4, 5, 5, loser], n_keys // 4)
        sync()
    burst([4, 4, 5, 5, loser], max(8, n_keys // 40), deletes=False)
    wal.log.append(4, RecordKind.COMMIT, b"")
    wal.current_xid = 5
    return {key for key in live if key < n_keys}


def counts(stats) -> dict:
    return {name: getattr(stats, name) for name in COUNTS}


# ----------------------------------------------------------------------
# single tree: logical_redo from the start of the log
# ----------------------------------------------------------------------

def crashed_tree(kind, page_size, seed):
    engine = StorageEngine.create(page_size=page_size, seed=seed)
    logi = LogicalLoggingTree.create(engine, "ix", kind=kind)
    expected = drive(logi, seed, KEYS[page_size], engine.sync)
    engine.crash_policy = RandomSubsetCrash(1.0, seed=seed)
    with pytest.raises(CrashError):
        logi.commit()                # COMMIT is forced; the sync tears
    tree = open_tree(StorageEngine.reopen(engine), "ix")
    # as the orchestrator's log row does: redo assumes a structurally
    # sound tree, and only the sweep's descents and link crossings fix
    # what the torn sync broke (unswept, shadow / 256 B / seed 12 sends
    # the per-record loop round a peer-link cycle for ever)
    tree.drive_repairs()
    return tree, logi.log, expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("page_size", sorted(KEYS))
@pytest.mark.parametrize("kind", KINDS)
def test_single_tree_redo_matches_the_reference(kind, page_size, seed):
    tree, log, expected = crashed_tree(kind, page_size, seed)
    stats = logical_redo(log, tree)
    image = all_page_bytes(tree)     # before a scan's link repairs

    def reference(**order):
        ref_tree, ref_log, _ = crashed_tree(kind, page_size, seed)
        ref_stats = PartitionStats(shard=0)
        ops = [r for r in ref_log.records()
               if r.kind in (RecordKind.OP_INSERT, RecordKind.OP_DELETE)]
        reference_replay_partition(ref_tree, ops, ref_log.committed_xids(),
                                   None, ref_stats, **order)
        return ref_tree, ref_stats

    ref_tree, ref_stats = reference()
    scan = list(tree.range_scan())
    assert scan == list(ref_tree.range_scan())
    assert counts(stats) == counts(ref_stats)
    assert stats.skipped_uncommitted > 0 and stats.out_of_order > 0
    assert {v for v, _ in scan if v < KEYS[page_size]} == expected
    assert fsck_tree(tree).errors == 0
    run_tree, run_stats = reference(key_order_runs=True)
    assert counts(run_stats) == counts(stats)
    assert image == all_page_bytes(run_tree)


# ----------------------------------------------------------------------
# shard groups: the orchestrator's log row, marks and cut included
# ----------------------------------------------------------------------

def crashed_group(kind, page_size, n_shards, seed):
    group = ShardedEngine.create(n_shards, page_size=page_size, seed=seed)
    wal = GroupLogicalLoggingTree.create(group, "ix", kind=kind)
    expected = drive(wal, seed, KEYS[page_size], group.sync_all)
    for index in range(n_shards):
        group.shard(index).crash_policy = RandomSubsetCrash(
            1.0, seed=seed + index)
    assert wal.commit() == list(range(n_shards))
    return group, wal.log, expected


def recover(kind, page_size, n_shards, seed):
    group, log, expected = crashed_group(kind, page_size, n_shards, seed)
    recovered, report = RecoveryOrchestrator(wal=log).recover(group, "ix")
    assert report.ok, [(r.shard, r.error) for r in report.shards]
    return recovered, report.redo, expected


def member_images(group):
    return [all_page_bytes(member)
            for member in group.open_tree("ix").trees]


def group_cases():
    for kind in KINDS:
        for page_size in sorted(KEYS):
            for n_shards in (1, 2, 4):
                for seed in SEEDS:
                    yield pytest.param(
                        kind, page_size, n_shards, seed,
                        id=f"{kind}-{page_size}-{n_shards}-{seed}")


@pytest.mark.parametrize("kind,page_size,n_shards,seed", group_cases())
def test_group_redo_matches_the_reference(kind, page_size, n_shards, seed,
                                          monkeypatch):
    group, redo, expected = recover(kind, page_size, n_shards, seed)
    assert 0 < sum(p.visited for p in redo.partitions) < redo.elided
    images = member_images(group)    # before a scan's link repairs

    # the same pipeline — sweep, owner threads, completion sync — with
    # the plan and the redo swapped for the reference's
    monkeypatch.setattr(parallel, "partition_records", reference_plan)
    monkeypatch.setattr(parallel, "replay_partition",
                        reference_replay_partition)
    ref_group, ref_redo, _ = recover(kind, page_size, n_shards, seed)
    assert all(p.visited == p.records for p in ref_redo.partitions)

    scan = list(group.open_tree("ix").range_scan())
    assert scan == list(ref_group.open_tree("ix").range_scan())
    for mine, theirs in zip(redo.partitions, ref_redo.partitions):
        assert counts(mine) == counts(theirs)
    assert {v for v, _ in scan if v < KEYS[page_size]} == expected
    assert fsck_group(group).errors == 0

    monkeypatch.setattr(
        parallel, "replay_partition",
        lambda *args: reference_replay_partition(*args,
                                                 key_order_runs=True))
    run_group, _, _ = recover(kind, page_size, n_shards, seed)
    assert images == member_images(run_group)
