"""Exhaustive crash-subset sweep over a mid-replay re-crash.

Log-based recovery adds its own sync to the crash surface: each shard's
replay partition work ends with a completion sync that makes the redone
state durable.  A shard that dies *there* — mid-parallel-replay, with an
arbitrary subset of its redone pages persisted — must be isolated
exactly like any other recovery-time crash: sibling shards finish their
own partitions, the victim is reported failed and stays gated, and a
second replay pass over the persisted subset **converges** to the same
state a clean replay produces — the redo test plus idempotent
re-execution make repeated partial redo safe.

The sweep enumerates every subset of the victim's replay-completion sync
batch (sampled past ``max_exhaustive``), mirroring the heal-completion
campaign in ``test_recrash_during_heal.py``.
"""

import pytest

from repro.shard import RecoveryOrchestrator, ShardedEngine
from repro.storage import CrashOnNthSync, RecordingPolicy, SubsetEnumerator
from repro.tools.fsck import fsck_group

from .helpers import build_wal_group

PAGE = 512
N_SHARDS = 3
COMMITTED = 150
TAIL = 60


def build(seed):
    """Deterministically rebuild the same crashed logged group."""
    return build_wal_group(N_SHARDS, committed_keys=COMMITTED,
                           tail_keys=TAIL, page_size=PAGE, seed=seed)


def recover(group, log, *, on_reopen=None):
    orchestrator = RecoveryOrchestrator(wal=log, on_reopen=on_reopen)
    return orchestrator.recover(group, "ix")


@pytest.mark.parametrize("seed", [17, 23])
def test_every_crash_subset_of_a_replay_completion_sync_converges(seed):
    # reference: a clean replay of the same crashed group
    ref_group, ref_report = recover(*_group_and_log(seed))
    assert ref_report.ok
    ref_scan = list(ref_group.open_tree("ix").range_scan())
    expected = {v for v, _ in ref_scan}

    # probe: learn each shard's replay-completion sync batch.  Partition
    # redo itself never syncs, so the completion sync is the shard's
    # first (and only) sync during recovery.
    recorders = [RecordingPolicy() for _ in range(N_SHARDS)]

    def record(index, engine):
        engine.crash_policy = recorders[index]

    probe_group, probe_report = recover(*_group_and_log(seed),
                                        on_reopen=record)
    assert probe_report.ok
    assert all(len(r.batches) == 1 for r in recorders), \
        "each shard's replay must sync exactly once (the completion sync)"
    victim = max(range(N_SHARDS),
                 key=lambda i: len(recorders[i].batches[0]))
    batch = recorders[victim].batches[0]
    assert len(batch) >= 2, f"unexpected completion batch {batch}"

    subsets = list(SubsetEnumerator(batch, max_exhaustive=6,
                                    sample=40, seed=seed).subsets())
    for subset in subsets:
        if len(subset) == len(batch):
            continue  # that sync simply succeeds

        def arm(index, engine, keep=subset):
            if index == victim:
                engine.crash_policy = CrashOnNthSync(1, keep=list(keep))

        group, log = _group_and_log(seed)
        recovered, report = recover(group, log, on_reopen=arm)

        # the victim died at its completion sync and stays gated;
        # siblings replayed to completion
        assert not report.ok
        assert report.failed_shards() == [victim], (
            f"subset {sorted(subset)}: {report.failed_shards()}")
        assert victim in recovered.crashed_shards()
        assert victim in report.redo.crashed_shards
        for shard_report in report.shards:
            if shard_report.shard != victim:
                assert shard_report.ok, (
                    f"subset {sorted(subset)}: sibling "
                    f"{shard_report.shard} failed: {shard_report.error}")

        # second replay pass over the persisted subset converges
        retried, retry = recover(recovered, log)
        assert retry.ok, (
            f"subset {sorted(subset)}: retry failed "
            f"{[(r.shard, r.error) for r in retry.shards if not r.ok]}")
        assert fsck_group(retried).errors == 0
        scan = list(retried.open_tree("ix").range_scan())
        assert scan == ref_scan, (
            f"subset {sorted(subset)}: second replay diverged from the "
            f"clean replay")
        assert {v for v, _ in scan} == expected


def _group_and_log(seed):
    group, wal, _committed, _tail = build(seed)
    return group, wal.log


def test_recrash_during_replay_is_idempotent_under_repeated_retries(
        seed=37):
    """Crash the victim's completion sync twice in a row (keeping
    nothing), then let the third pass through: replay over an already
    partially-redone shard must keep converging, with re-executed work
    surfacing as idempotent skips rather than conflicts."""
    group, log = _group_and_log(seed)
    victim = 1

    def arm(index, engine):
        if index == victim:
            engine.crash_policy = CrashOnNthSync(1, keep=0)

    for _attempt in range(2):
        group, report = recover(group, log, on_reopen=arm)
        assert report.failed_shards() == [victim]

    recovered, report = recover(group, log)
    assert report.ok
    assert fsck_group(recovered).errors == 0

    ref_group, ref_report = recover(*_group_and_log(seed))
    assert ref_report.ok
    assert list(recovered.open_tree("ix").range_scan()) == \
        list(ref_group.open_tree("ix").range_scan())
