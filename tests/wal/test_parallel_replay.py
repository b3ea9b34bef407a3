"""Partitioned WAL replay: redo test, partitioning, and the
serial/parallel equivalence property.

The load-bearing guarantee is that concurrency changes *nothing* about
the recovered state: replaying partitions on the shard owner threads
(in any interleaving, with any key-range sub-partitioning) must yield a
tree state byte-identical to the serial replay — same full range scan,
clean fsck — because partitions share no keys and per-key LSN order
survives the key-range split.  The sweep runs that equivalence over
seeds and shard counts.
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
    key_range_bounds,
    partition_records,
    replay_group,
    subpart_of,
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

def test_subpart_is_key_stable_contiguous_and_in_range():
    records = [LogRecord(lsn + 1, 1, RecordKind.OP_INSERT,
                         len(key).to_bytes(2, "little") + key)
               for lsn, key in enumerate(
                   i.to_bytes(4, "big") for i in range(0, 4000, 7))]
    for subparts in (2, 3, 8):
        bounds = key_range_bounds(records, subparts)
        assert bounds is not None
        parts = []
        for i in range(0, 4000, 7):
            key = i.to_bytes(4, "big")
            part = subpart_of(key, subparts, bounds)
            assert 0 <= part < subparts
            assert part == subpart_of(key, subparts, bounds)
            parts.append(part)
        # contiguous ranges: ascending keys never go back to an earlier
        # sub-range, and every range is populated
        assert parts == sorted(parts)
        assert set(parts) == set(range(subparts))
    assert key_range_bounds(records, 1) is None
    assert subpart_of(None, 4, [100]) == 0
    assert subpart_of(b"\x00\x00\x00\x01", 4, None) == 0


def test_partition_plan_covers_every_op_record_exactly_once():
    group, wal, _committed, _tail = build_wal_group(
        3, committed_keys=120, tail_keys=40, page_size=PAGE, seed=7)
    plan = partition_records(wal.log, [0, 1, 2], subparts=3)
    planned = [r.lsn for shard in plan for sub in plan[shard]
               for r in sub]
    expected = [r.lsn for shard in (0, 1, 2)
                for r in wal.log.records_for(shard)]
    assert sorted(planned) == sorted(expected)
    for shard, subs in plan.items():
        for sub in subs:
            assert [r.lsn for r in sub] == sorted(r.lsn for r in sub)
            for r in sub:
                assert r.shard == shard


# ----------------------------------------------------------------------
# serial/parallel equivalence (the property)
# ----------------------------------------------------------------------

def _recover(mode, subparts, *, n_shards, seed):
    """Build the deterministic crashed group and recover it under one
    replay configuration; returns (group, stats, scan, committed, tail).
    """
    group, wal, committed, tail = build_wal_group(
        n_shards, committed_keys=180, tail_keys=60, page_size=PAGE,
        seed=seed)
    reopened = ShardedEngine.reopen(group)
    tree = reopened.open_tree("ix")
    stats = replay_group(wal.log, tree, parallel=(mode == "parallel"),
                         subparts=subparts)
    assert stats.ok, stats.errors()
    scan = list(tree.range_scan())
    return reopened, stats, scan, committed, tail


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_parallel_replay_equals_serial_replay(seed, n_shards):
    ref_group, ref_stats, ref_scan, committed, tail = _recover(
        "serial", 1, n_shards=n_shards, seed=seed)
    assert fsck_group(ref_group).errors == 0
    values = {v for v, _ in ref_scan}
    assert set(committed) <= values and set(tail) <= values

    for subparts in (1, 3):
        group, stats, scan, _, _ = _recover(
            "parallel", subparts, n_shards=n_shards, seed=seed)
        assert scan == ref_scan, (
            f"parallel(subparts={subparts}) diverged from serial at "
            f"{n_shards} shards, seed {seed}")
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
