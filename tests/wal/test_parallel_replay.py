"""Partitioned WAL replay: redo test, partitioning, and the
serial/parallel equivalence property.

The load-bearing guarantee is that concurrency changes *nothing* about
the recovered state: replaying partitions on the shard owner threads
(in any interleaving) must yield a tree state identical to the serial
replay — same full range scan, clean fsck — because partitions share no
keys.  The sweep runs that equivalence over seeds and shard counts.
"""

import pytest

from repro import TID
from repro.shard import RecoveryOrchestrator, ShardedEngine
from repro.tools.fsck import fsck_group
from repro.wal import (
    GroupLogicalLoggingTree,
    LogRecord,
    RecordKind,
    covered_by_mark,
    partition_records,
    replay_group,
)

from ..recovery.helpers import build_wal_group

PAGE = 512


def tid_for(i):
    return TID(1 + (i >> 8), i & 0xFF)


# ----------------------------------------------------------------------
# the redo test
# ----------------------------------------------------------------------

def _rec(lsn, token):
    return LogRecord(lsn, 1, RecordKind.OP_INSERT, b"", shard=0,
                     token=token)


def _mark(lsn, token):
    return LogRecord(lsn, 0, RecordKind.SYNC_MARK, b"", shard=0,
                     token=token)


def test_redo_test_elides_strictly_older_sync_windows():
    assert covered_by_mark(_rec(5, token=3), _mark(10, token=4))


def test_redo_test_uses_lsn_within_the_marks_own_window():
    # the sync counter only advances on a split, so one token window can
    # span several syncs: records before the mark are covered, records
    # after it are not
    mark = _mark(10, token=4)
    assert covered_by_mark(_rec(9, token=4), mark)
    assert not covered_by_mark(_rec(11, token=4), mark)


def test_redo_test_replays_newer_windows_and_unmarked_shards():
    assert not covered_by_mark(_rec(5, token=9), _mark(10, token=4))
    assert not covered_by_mark(_rec(5, token=3), None)


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------

def test_covered_prefix_plus_plan_is_the_shards_partition():
    group, wal, _committed, _tail = build_wal_group(
        3, committed_keys=120, tail_keys=40, page_size=PAGE, seed=7)
    plan = partition_records(wal.log, [0, 1, 2])
    assert sorted(plan) == [0, 1, 2]
    for shard, (covered, planned) in plan.items():
        partition = wal.log.records_for(shard)
        mark = wal.log.last_sync_mark(shard)
        # disjoint and exhaustive: the prefix is exactly what the mark
        # covers, the plan exactly the rest, in the partition's order
        assert 0 < covered < len(partition)
        assert planned == partition[covered:]
        assert all(covered_by_mark(r, mark) for r in partition[:covered])
        assert not any(covered_by_mark(r, mark) for r in planned)
        assert [r.lsn for r in planned] == sorted(r.lsn for r in planned)
        assert all(r.shard == shard for r in planned)


# ----------------------------------------------------------------------
# serial/parallel equivalence (the property)
# ----------------------------------------------------------------------

def _recover(mode, *, n_shards, seed):
    """Build the deterministic crashed group and recover it serially or
    in parallel; returns (group, stats, scan, committed, tail)."""
    group, wal, committed, tail = build_wal_group(
        n_shards, committed_keys=180, tail_keys=60, page_size=PAGE,
        seed=seed)
    reopened = ShardedEngine.reopen(group)
    tree = reopened.open_tree("ix")
    stats = replay_group(wal.log, tree, parallel=(mode == "parallel"))
    assert stats.ok, stats.errors()
    scan = list(tree.range_scan())
    return reopened, stats, scan, committed, tail


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_parallel_replay_equals_serial_replay(seed, n_shards):
    ref_group, ref_stats, ref_scan, committed, tail = _recover(
        "serial", n_shards=n_shards, seed=seed)
    assert fsck_group(ref_group).errors == 0
    values = {v for v, _ in ref_scan}
    assert set(committed) <= values and set(tail) <= values

    group, stats, scan, _, _ = _recover(
        "parallel", n_shards=n_shards, seed=seed)
    assert scan == ref_scan, (
        f"parallel diverged from serial at {n_shards} shards, "
        f"seed {seed}")
    assert fsck_group(group).errors == 0
    # same work was elided and applied, just concurrently
    assert stats.applied == ref_stats.applied
    assert stats.elided == ref_stats.elided
    assert stats.elided > 0


def test_uncommitted_tail_is_skipped():
    group = ShardedEngine.create(2, page_size=PAGE, seed=9)
    wal = GroupLogicalLoggingTree.create(group, "ix", kind="shadow")
    wal.current_xid = 1
    for i in range(80):
        wal.insert(i, tid_for(i))
    assert wal.commit() == []
    wal.current_xid = 2          # never commits: a redo loser
    for i in range(80, 120):
        wal.insert(i, tid_for(i))

    reopened = ShardedEngine.reopen(group)
    tree = reopened.open_tree("ix")
    stats = replay_group(wal.log, tree, parallel=True)
    assert stats.ok
    assert stats.records == 120
    assert stats.elided + stats.out_of_order + stats.applied == 80
    loser = [p.skipped_uncommitted for p in stats.partitions]
    assert sum(loser) == 40
    values = {v for v, _ in tree.range_scan()}
    assert values == set(range(80))


def test_replay_reports_dead_shards_instead_of_raising():
    group, wal, _committed, _tail = build_wal_group(
        2, committed_keys=80, tail_keys=20, page_size=PAGE, seed=13)
    reopened = ShardedEngine.reopen(group)
    tree = reopened.open_tree("ix")
    # shard 1 was never reopened in this scenario: simulate by replaying
    # against a tree whose member handle is missing
    tree.trees[1] = None
    stats = replay_group(wal.log, tree, parallel=True, shards=[0, 1])
    assert not stats.ok
    bad = [p for p in stats.partitions if p.shard == 1]
    assert bad and all(p.error is not None for p in bad)
    good = [p for p in stats.partitions if p.shard == 0]
    assert good and all(p.ok for p in good)


# ----------------------------------------------------------------------
# through the orchestrator
# ----------------------------------------------------------------------

def test_orchestrator_log_replay_recovers_the_committed_tail():
    group, wal, committed, tail = build_wal_group(
        4, committed_keys=160, tail_keys=60, page_size=PAGE, seed=21)
    # wal_subparts: accepted and ignored, as the frozen benchmark passes
    orchestrator = RecoveryOrchestrator(wal=wal.log, wal_subparts=2)
    recovered, report = orchestrator.recover(group, "ix")
    assert report.ok, [(r.shard, r.error) for r in report.shards]
    assert report.redo is not None and report.redo.elided > 0
    assert all(r.mode == "log" for r in report.shards)
    assert all(r.replay_seconds >= 0.0 for r in report.shards)
    tree = recovered.open_tree("ix")
    values = {v for v, _ in tree.range_scan()}
    assert set(committed) <= values and set(tail) <= values
    assert fsck_group(recovered).errors == 0


def test_orchestrator_rejects_wal_with_instant_restart():
    from repro.wal import StableLog
    with pytest.raises(ValueError):
        RecoveryOrchestrator(wal=StableLog(), admit_immediately=True)
    # one redo discipline: the removed modes are rejected, logged or not
    for wal_mode in ("bogus", "serial-logical", "serial-physical"):
        with pytest.raises(ValueError):
            RecoveryOrchestrator(wal=StableLog(), wal_mode=wal_mode)
    with pytest.raises(ValueError):
        RecoveryOrchestrator(wal_mode="serial-logical")
