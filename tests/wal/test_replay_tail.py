"""Replay costs the tail: where the plan is cut, what the cut costs,
and what happens to a shard whose tail cannot be redone.

A shard's sync tokens never go backwards along its partition, so the
records its last SYNC_MARK covers are a prefix and ``partition_records``
finds the prefix's end by binary search.  These tests hold the search to
the linear scan it replaced — on logs that span several incarnations,
where tokens jump to the persisted maximum at every restart — and hold
replay to a *counted* cost that depends on the tail and not on the log
behind it (``cProfile`` call counts, as in
``tests/fastpath/test_decode_budget.py``: exact, so load-independent).
"""

import pytest

from repro import TID
from repro.shard import RecoveryOrchestrator, ShardedEngine
from repro.storage import CrashOnNthSync
from repro.tools.fsck import fsck_group
from repro.wal import (
    GroupLogicalLoggingTree,
    RecordKind,
    StableLog,
    covered_by_mark,
    encode_op,
    partition_records,
    replay_group,
)

from ..conftest import tid_for
from ..fastpath.test_decode_budget import count_calls
from ..recovery.helpers import build_wal_group

PAGE = 512


def relog(source: StableLog, *, covered_prefix: int = 0,
          drop_lsn: int | None = None) -> StableLog:
    """A copy of *source*, optionally behind *covered_prefix* extra op
    records per shard that any mark covers (token 0 is older than every
    window), optionally without the record at *drop_lsn*."""
    out = StableLog()
    for shard in source.shards():
        for i in range(covered_prefix):
            out.append(1, RecordKind.OP_INSERT,
                       encode_op(i.to_bytes(4, "big"), tid_for(i)),
                       shard=shard, token=0)
    for record in source.records():
        if record.lsn != drop_lsn:
            out.append(record.xid, record.kind, record.payload,
                       shard=record.shard, token=record.token)
    return out


# ----------------------------------------------------------------------
# the cut
# ----------------------------------------------------------------------

def linear_cut(partition, mark) -> int:
    """Where a record-by-record scan first finds one the mark does not
    cover."""
    return next((i for i, record in enumerate(partition)
                 if not covered_by_mark(record, mark)), len(partition))


def crash_everything(wal, group, first_key, n):
    """Commit *n* more keys in the log, then crash every shard's commit
    sync keeping nothing."""
    wal.current_xid += 1
    for key in range(first_key, first_key + n):
        wal.insert(key, tid_for(key))
    for engine in group.shards:
        engine.crash_policy = CrashOnNthSync(1, keep=0)
    assert wal.commit() == list(range(len(group)))


@pytest.mark.parametrize("n_shards", [1, 3])
def test_cut_is_the_linear_scans_across_incarnations(n_shards):
    group = ShardedEngine.create(n_shards, page_size=PAGE, seed=41)
    wal = GroupLogicalLoggingTree.create(group, "ix", kind="shadow")
    next_key = 0
    for incarnation in range(3):
        # clean commits (marked), then a committed tail whose sync dies
        for _ in range(2):
            wal.current_xid += 1
            for key in range(next_key, next_key + 60):
                wal.insert(key, tid_for(key))
            next_key += 60
            assert wal.commit() == []
        crash_everything(wal, group, next_key, 45)
        next_key += 45

        plan = partition_records(wal.log, range(n_shards))
        for shard, (covered, planned) in plan.items():
            partition = wal.log.records_for(shard)
            mark = wal.log.last_sync_mark(shard)
            tokens = [record.token for record in partition]
            assert tokens == sorted(tokens)   # why the search is sound
            assert covered == linear_cut(partition, mark)
            assert planned == partition[covered:]
            assert not any(covered_by_mark(r, mark) for r in planned)
            # the tail is this incarnation's crashed commit, no more:
            # earlier tails were redone, synced, and are now covered
            assert 0 < len(planned) <= 45

        group, report = RecoveryOrchestrator(wal=wal.log).recover(group,
                                                                  "ix")
        assert report.ok, [(r.shard, r.error) for r in report.shards]
        assert sum(p.visited for p in report.redo.partitions) == 45
        assert report.redo.applied == 45
        # tokens re-seed from the persisted maximum: the next window's
        # are far above anything logged so far
        wal = GroupLogicalLoggingTree(group, group.open_tree("ix"), wal.log)
        wal.current_xid = 10 * (incarnation + 1)
    assert [v for v, _ in wal.tree.range_scan()] == list(range(next_key))
    assert fsck_group(group).errors == 0


def test_a_shard_with_no_mark_plans_its_whole_partition():
    group = ShardedEngine.create(2, page_size=PAGE, seed=43)
    wal = GroupLogicalLoggingTree.create(group, "ix", kind="shadow")
    crash_everything(wal, group, 0, 80)     # the very first commit dies
    plan = partition_records(wal.log, [0, 1])
    for shard, (covered, planned) in plan.items():
        assert wal.log.last_sync_mark(shard) is None
        assert covered == 0
        assert planned == wal.log.records_for(shard) and planned
    group, report = RecoveryOrchestrator(wal=wal.log).recover(group, "ix")
    assert report.ok and report.redo.elided == 0
    assert report.redo.applied == 80


# ----------------------------------------------------------------------
# the budget
# ----------------------------------------------------------------------

def replay_calls(covered_prefix: int) -> tuple[int, object]:
    group, wal, _committed, _tail = build_wal_group(
        2, committed_keys=600, tail_keys=400, page_size=4096, seed=47)
    log = relog(wal.log, covered_prefix=covered_prefix)
    tree = ShardedEngine.reopen(group).open_tree("ix")
    out = []
    # serial: the profiler counts the calling thread only
    calls, _unpacks = count_calls(
        lambda: out.append(replay_group(log, tree, parallel=False)))
    return calls, out[0]


def test_replay_cost_follows_the_tail_not_the_log():
    small, small_stats = replay_calls(1_000)     # 2 000 covered records
    large, large_stats = replay_calls(10_000)    # 20 000
    for stats, prefix in ((small_stats, 2_000), (large_stats, 20_000)):
        assert stats.ok
        assert stats.records == prefix + 600 + 400
        assert stats.elided == prefix + 600
        assert stats.applied == 400
        assert sum(p.visited for p in stats.partitions) == 400
    # ten times the log behind the same tail: a few more bisect probes
    assert abs(large - small) <= 0.05 * small, (small, large)


# ----------------------------------------------------------------------
# a tail that cannot be redone
# ----------------------------------------------------------------------

def test_a_shard_whose_redo_failed_stays_gated():
    group, wal, committed, tail = build_wal_group(
        2, committed_keys=80, tail_keys=20, page_size=PAGE, seed=5)
    # a committed insert the index contradicts: the key is durably
    # mapped to another TID
    key = wal.tree.codec.encode(committed[0])
    victim = wal.tree.router.shard_of(key)
    bad = wal.log.append(
        wal.current_xid, RecordKind.OP_INSERT, encode_op(key, TID(99, 9)),
        shard=victim, token=group.shard(victim).sync_state.token())

    recovered, report = RecoveryOrchestrator(wal=wal.log).recover(group,
                                                                  "ix")
    assert report.failed_shards() == [victim]
    assert "conflicts" in report.shards[victim].error
    # reported failed means gated: not live, no completion sync made
    # the half-redone state durable, and the sibling is fully recovered
    sibling = 1 - victim
    assert recovered.live_shards() == [sibling]
    assert recovered.shard(victim) is group.shard(victim)
    assert report.shards[sibling].ok
    values = {v for v, _ in recovered.open_tree("ix").trees[sibling]
              .range_scan()}
    assert values == {v for v in committed + tail
                      if wal.tree.router.shard_of(
                          wal.tree.codec.encode(v)) == sibling}

    # a retry without the bad record converges
    retried, retry = RecoveryOrchestrator(
        wal=relog(wal.log, drop_lsn=bad)).recover(recovered, "ix")
    assert retry.ok, [(r.shard, r.error) for r in retry.shards]
    assert retried.live_shards() == [0, 1]
    assert {v for v, _ in retried.open_tree("ix").range_scan()} \
        == set(committed) | set(tail)
    assert fsck_group(retried).errors == 0
