"""Exhaustive crash-subset sweep over one group-commit window.

The group-commit ack must be honest against *any* torn barrier sync: if
the victim shard persists only a subset of the pages its window sync
wrote, the commit riding that window fails typed, every previously
acked commit still survives recovery, and the torn window's writes
apply-or-vanish.  A probe run records the victim's sync batches through
the real serving path, then the sweep replays the identical scenario
once per persisted subset (the serving script is single-session and
synchronous, so the rebuilt runs are bit-for-bit deterministic).
"""

import pytest

from repro import TID
from repro.serve import CommitFailed, Server
from repro.shard import RecoveryOrchestrator, ShardedEngine
from repro.storage import CrashOnNthSync, RecordingPolicy, SubsetEnumerator
from repro.tools.fsck import fsck_group

PAGE = 512
#: enough preloaded keys that the second window splits the victim's last
#: leaf, which an ascending preload leaves four fifths full (DESIGN §5o)
PRELOAD = 100
VICTIM = 0
N_SHARDS = 2


def tid_for(i):
    return TID(1 + (i >> 8), i & 0xFF)


def build(policy=None, seed=31):
    """Deterministically rebuild the group; *policy* arms the victim
    before any sync so probe and sweep count syncs identically."""
    group = ShardedEngine.create(N_SHARDS, page_size=PAGE, seed=seed)
    tree = group.create_tree("shadow", "ix", codec="uint32")
    if policy is not None:
        group.shard(VICTIM).crash_policy = policy
    for k in range(PRELOAD):
        tree.insert(k, tid_for(k))
    group.sync_all()
    return group, tree


def victim_keys(tree, lo, count):
    out = []
    k = lo
    while len(out) < count:
        if tree.shard_of(k) == VICTIM:
            out.append(k)
        k += 1
    return out


def run_script(group, tree):
    """The serving script under test: two commits, both dirtying only
    the victim shard.  Single synchronous session + zero aggregation
    delay = one deterministic sync per commit.  Returns
    (first_batch, second_batch, first_window, second_commit_error)."""
    first = victim_keys(tree, 200, 6)
    second = victim_keys(tree, 400, 6)
    error = None
    with Server(tree, window_delay=0.0) as server:
        session = server.session()
        for k in first:
            session.insert(k, tid_for(k))
        first_window = session.commit()
        for k in second:
            session.insert(k, tid_for(k))
        try:
            session.commit()
        except CommitFailed as exc:
            error = exc
    return first, second, first_window, error


def test_every_subset_of_a_commit_window_sync_keeps_the_acks():
    # probe: record the victim's sync batches through the real path.
    # Sync ordinals on the victim: preload sync_all, commit 1's
    # barrier, commit 2's barrier — the last recorded batch is the
    # window under test.
    recorder = RecordingPolicy()
    group, tree = build(policy=recorder)
    first, second, first_window, error = run_script(group, tree)
    assert error is None, "the probe run must not crash"
    assert first_window >= 1
    n_syncs = len(recorder.batches)
    assert n_syncs >= 3, f"expected preload + 2 barriers, saw {n_syncs}"
    batch = recorder.batches[-1]
    assert len(batch) >= 2, f"degenerate window sync batch {batch}"

    subsets = list(SubsetEnumerator(batch, max_exhaustive=6,
                                    sample=24).subsets())
    assert subsets
    for subset in subsets:
        if len(subset) == len(batch):
            continue    # the full batch persisting is just a clean sync
        group, tree = build(
            policy=CrashOnNthSync(n_syncs, keep=list(subset)))
        first, second, first_window, error = run_script(group, tree)

        # the torn barrier fails the commit typed, naming the victim
        # and the window that could not be proven durable
        assert error is not None, \
            f"subset {sorted(subset)}: torn sync was acked"
        assert error.shards == [VICTIM]
        assert error.window == first_window + 1
        assert VICTIM in group.crashed_shards()

        # recovery: the acked window survives from any persisted subset
        group2, report = RecoveryOrchestrator().recover(group, "ix")
        assert report.ok, \
            f"subset {sorted(subset)}: {report.failed_shards()}"
        assert fsck_group(group2).errors == 0
        pairs = dict(group2.open_tree("ix").range_scan())
        durable = set(range(PRELOAD)) | set(first)
        missing = durable - set(pairs)
        assert not missing, (
            f"subset {sorted(subset)}: acked keys lost {sorted(missing)}")
        # the unacked window's writes apply-or-vanish, never tear
        for k in second:
            assert pairs.get(k, tid_for(k)) == tid_for(k)


def test_commit_failed_window_is_retryable_after_recovery():
    # the CommitFailed contract: recover the group, retry the writes,
    # and the second attempt acks normally
    group, tree = build(policy=CrashOnNthSync(3))
    first, second, first_window, error = run_script(group, tree)
    assert error is not None and error.shards == [VICTIM]

    group2, report = RecoveryOrchestrator().recover(group, "ix")
    assert report.ok
    tree2 = group2.open_tree("ix")
    with Server(tree2, window_delay=0.0) as server:
        session = server.session()
        for k in second:
            if session.get(k) is None:     # vanished with the tear
                session.insert(k, tid_for(k))
        assert session.commit() >= 1 or not session.dirty_shards()
    pairs = dict(group2.open_tree("ix").range_scan())
    for k in second:
        assert pairs[k] == tid_for(k)
