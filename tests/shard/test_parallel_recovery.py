"""Parallel recovery orchestration: correctness, reports, isolation."""

import threading

import pytest

from repro import TID, CrashError
from repro.core import open_tree
from repro.errors import ReproError
from repro.obs import get_registry, get_trace, metric_key
from repro.shard import (RecoveryOrchestrator, ShardedEngine,
                         recover_group)
from repro.storage import RandomSubsetCrash
from repro.tools.fsck import fsck_tree
from repro.wal import GroupLogicalLoggingTree

from ..recovery.helpers import build_wal_group

PAGE = 512
KEYS = 240


def build_group(n=4, keys=KEYS, seed=17, kind="shadow"):
    group = ShardedEngine.create(n, page_size=PAGE, seed=seed)
    tree = group.create_tree(kind, "ix", codec="uint32")
    for k in range(keys):
        tree.insert(k, TID(1 + (k >> 8), k & 0xFF))
        if (k + 1) % 80 == 0:
            group.sync_all()
    group.sync_all()
    return group, tree


def crash_shards(group, tree, victims, *, keys=KEYS, seed=23):
    """Arm the victims, push uncommitted inserts group-wide, then sync
    each victim so it dies with a random page subset persisted."""
    for index in victims:
        group.shard(index).crash_policy = RandomSubsetCrash(
            p=1.0, seed=seed + index)
    for j in range(keys, keys + 60):
        try:
            tree.insert(j, TID(7, j % 100))
        except CrashError:
            continue
    for index in victims:
        if not group.shard(index).dead:
            try:
                group.shard(index).sync()
            except CrashError:
                pass
    assert sorted(group.crashed_shards()) == sorted(victims)


@pytest.mark.parametrize("kind", ["shadow", "reorg", "hybrid"])
def test_parallel_recovery_restores_every_committed_key(kind):
    group, tree = build_group(kind=kind)
    crash_shards(group, tree, [0, 2])
    group2, report = RecoveryOrchestrator().recover(group, "ix")
    assert report.ok
    assert report.max_workers == 1      # no device wait to overlap
    tree2 = group2.open_tree("ix")
    scanned = {k for k, _ in tree2.range_scan()}
    missing = [k for k in range(KEYS) if k not in scanned]
    assert not missing, f"lost committed keys {missing[:10]}"
    # the group accepts new work afterwards
    tree2.insert(100_000, TID(9, 9))
    group2.sync_all()
    group2.shutdown()


def test_live_shards_pass_through_untouched():
    group, tree = build_group()
    crash_shards(group, tree, [1])
    survivors = [group.shard(i) for i in (0, 2, 3)]
    group2, report = RecoveryOrchestrator().recover(group, "ix")
    for i, engine in zip((0, 2, 3), survivors):
        assert group2.shard(i) is engine
    assert group2.shard(1) is not group.shard(1)
    by_shard = {r.shard: r for r in report.shards}
    assert by_shard[1].keys_seen > 0
    for i in (0, 2, 3):
        assert by_shard[i].ok and by_shard[i].keys_seen == 0


def with_sync_latency(group, seconds=0.001):
    """Give every engine of *group* the served engines' sync barrier, the
    one device wait a sweep stage makes."""
    for engine in group.shards:
        engine.sync_latency = seconds
    return group


def test_serial_and_parallel_recover_identical_state():
    group, tree = build_group(seed=31)
    crash_shards(group, tree, [0, 1, 2, 3], seed=41)
    # a sync to wait on, so the parallel leg runs on a pool
    with_sync_latency(group)
    snaps = [{name: disk.snapshot()
              for name, disk in engine._disks.items()}
             for engine in group.shards]

    serial_group, serial_report = RecoveryOrchestrator(
        max_workers=1).recover(group, "ix")
    serial_keys = list(serial_group.open_tree("ix").range_scan())

    for engine, snap in zip(group.shards, snaps):
        for name, disk in engine._disks.items():
            disk.restore(snap[name])
    parallel_group, parallel_report = RecoveryOrchestrator().recover(
        group, "ix")
    parallel_keys = list(parallel_group.open_tree("ix").range_scan())

    assert serial_report.ok and parallel_report.ok
    assert serial_keys == parallel_keys
    assert serial_report.max_workers == 1
    assert parallel_report.max_workers == 4


def test_fsck_before_repair_is_an_on_reopen_hook():
    group, tree = build_group()
    crash_shards(group, tree, [3])
    fsck_errors = {}

    def fsck_first(index, engine):
        fsck_errors[index] = fsck_tree(open_tree(engine, "ix")).errors

    group2, report = RecoveryOrchestrator(on_reopen=fsck_first).recover(
        group, "ix")
    assert report.ok
    assert fsck_errors == {3: 0}    # live shards: hook never runs


def test_recover_group_convenience_wrapper():
    group, tree = build_group()
    crash_shards(group, tree, [2])
    group2, report = recover_group(group, "ix", parallel=False)
    assert report.ok and report.max_workers == 1
    assert set(group2.live_shards()) == {0, 1, 2, 3}


def test_recovery_emits_per_shard_metrics_and_traces():
    group, tree = build_group()
    crash_shards(group, tree, [1, 3])
    before = get_registry().snapshot()["histograms"]
    RecoveryOrchestrator().recover(group, "ix")
    hists = get_registry().snapshot()["histograms"]
    for index in (1, 3):
        key = metric_key("shard.recovery.seconds",
                         {"shard": str(index)})
        grew = hists.get(key, {}).get("count", 0) > \
            before.get(key, {}).get("count", 0)
        assert grew, f"no repair-latency sample for shard {index}"
    events = [e for e in get_trace().events()
              if e.etype == "shard_recovery"]
    recovered = {e.detail["shard"] for e in events[-2:]}
    assert recovered == {1, 3}
    # nothing to overlap: the pass says it ran on the calling thread
    assert [e.detail["threads"] for e in events[-2:]] == [1, 1]


def stage_case(stage):
    """A crashed group with shards 0 and 2 (at least) dead, the
    orchestrator keywords selecting *stage*'s row of the stage table,
    and the keys a full recovery must bring back."""
    if stage == "log":
        group, wal, committed, tail = build_wal_group(
            4, committed_keys=KEYS // 2, tail_keys=40, page_size=PAGE,
            seed=17)
        return group, {"wal": wal.log}, set(committed) | set(tail)
    group, tree = build_group()
    crash_shards(group, tree, [0, 2])
    return group, {"admit_immediately": stage == "admit"}, set(range(KEYS))


@pytest.mark.parametrize("error", [ValueError("hook bug on shard 0"),
                                   ReproError("verifier refused shard 0")],
                         ids=["hook-bug", "repro-error"])
@pytest.mark.parametrize("stage", ["sweep", "admit", "log"])
def test_failure_after_reopen_is_contained_and_keeps_the_shard_gated(
        stage, error):
    # whatever one shard's stage raises after its reopen — a hook bug, a
    # refused open, a raising verifier — the reopened engine is live but
    # unverified: the orchestrator must hand back the *dead* engine so
    # live_shards() never routes traffic to a shard whose report says
    # ok=False, and siblings recovered in the same pass stay recovered
    # (the pass returns instead of raising)
    group, kwargs, expected = stage_case(stage)

    def bad_hook(index, engine):
        if index == 0:
            raise error

    group2, report = RecoveryOrchestrator(on_reopen=bad_hook,
                                          **kwargs).recover(group, "ix")
    assert not report.ok
    assert report.failed_shards() == [0]
    by_shard = {r.shard: r for r in report.shards}
    assert type(error).__name__ in by_shard[0].error
    assert by_shard[2].ok
    assert (by_shard[2].keys_seen > 0) == (stage != "admit")
    # the victim keeps its dead engine; the sibling serves
    assert group2.shard(0) is group.shard(0), \
        "failed shard must keep its dead engine, not the reopened one"
    assert set(group2.live_shards()) == {1, 2, 3}
    # a retry pass (hook fixed) heals the victim with siblings untouched
    group3, retry = RecoveryOrchestrator(**kwargs).recover(group2, "ix")
    assert retry.ok
    assert group3.shard(2) is group2.shard(2)
    for heal in (report.heal, retry.heal):
        if heal is not None:
            heal.drain()
    scanned = {k for k, _ in group3.open_tree("ix").range_scan()}
    assert expected <= scanned


@pytest.mark.parametrize("stage", ["sweep", "admit", "log"])
def test_the_report_says_how_much_of_the_sweep_was_the_validator(stage):
    group, kwargs, _ = stage_case(stage)
    dead = [i for i, engine in enumerate(group.shards) if engine.dead]
    _, report = RecoveryOrchestrator(**kwargs).recover(group, "ix")
    assert report.ok
    events = {e.detail["shard"]: e.detail["verify_seconds"]
              for e in get_trace().events("shard_recovery")[-len(dead):]}
    for index in dead:
        shard_report = report.shards[index]
        assert events[index] == shard_report.verify_seconds
        if stage == "admit":
            # nothing sweeps or validates before the shard serves
            assert shard_report.verify_seconds == 0
        else:
            assert 0 < shard_report.verify_seconds \
                <= shard_report.drive_seconds
    if stage == "admit":
        report.heal.drain()
        progress = report.heal.progress()
        assert all(progress[index]["verify_seconds"] > 0 for index in dead)


def test_log_recovery_reports_its_sweep_like_the_sweep_row():
    # the log row runs the same repair sweep: its repairs must reach the
    # report, the per-shard series and the trace event, not just the tree
    group = ShardedEngine.create(2, page_size=PAGE, seed=17)
    wal = GroupLogicalLoggingTree.create(group, "ix", kind="shadow")
    for xid, start in enumerate(range(0, KEYS, 80), start=1):
        wal.current_xid = xid
        for k in range(start, start + 80):
            wal.insert(2 * k, TID(1 + (k >> 8), k & 0xFF))
        if start + 80 < KEYS:
            assert wal.commit() == []
    for index in range(2):
        group.shard(index).crash_policy = RandomSubsetCrash(
            p=1.0, seed=23 + index)
    assert sorted(wal.commit()) == [0, 1]

    before = get_registry().snapshot()["histograms"]
    recovered, report = RecoveryOrchestrator(wal=wal.log).recover(
        group, "ix")
    assert report.ok
    assert report.total_repairs > 0, "scenario must damage a page"
    hists = get_registry().snapshot()["histograms"]
    events = {e.detail["shard"]: e
              for e in get_trace().events("shard_recovery")[-2:]}
    for shard_report in report.shards:
        index = shard_report.shard
        key = metric_key("shard.recovery.seconds", {"shard": str(index)})
        assert hists[key]["count"] > before.get(key, {}).get("count", 0)
        assert events[index].detail["repairs"] == \
            sum(shard_report.repairs.values())
        assert set(shard_report.repair_seconds) == \
            set(shard_report.repairs)
    scanned = {k for k, _ in recovered.open_tree("ix").range_scan()}
    assert {2 * k for k in range(KEYS)} <= scanned


def test_recovery_of_a_clean_group_is_a_no_op():
    group, tree = build_group()
    group2, report = RecoveryOrchestrator().recover(group, "ix")
    assert report.ok
    assert all(r.keys_seen == 0 for r in report.shards)
    assert all(group2.shard(i) is group.shard(i)
               for i in range(len(group)))


# -- a pool only where a device wait can overlap ------------------------------

def counted_pools(monkeypatch) -> list:
    """Record the width of every pool a recovery spawns."""
    from repro.shard import recovery

    pools = []

    class CountedPool(recovery.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(recovery, "ThreadPoolExecutor", CountedPool)
    return pools


def test_a_lone_dead_shard_is_recovered_on_the_calling_thread(monkeypatch):
    """``ttfq_ms`` was mostly a thread spawned and joined per recovery
    (ROADMAP item 3(b)).  With one shard to recover the stage runs
    inline."""
    pools = counted_pools(monkeypatch)
    ran_on = {}

    def note_thread(index, _engine):
        ran_on[index] = threading.get_ident()

    group, tree = build_group()
    crash_shards(group, tree, [2])
    group2, report = RecoveryOrchestrator(on_reopen=note_thread).recover(
        group, "ix")
    assert report.ok and not pools
    assert ran_on == {2: threading.get_ident()}
    assert {k for k, _ in group2.open_tree("ix").range_scan()} \
        >= set(range(KEYS))

    # nothing dead: nothing spawned either
    RecoveryOrchestrator(on_reopen=note_thread).recover(group2, "ix")
    assert not pools


def test_dead_shards_share_a_pool_only_when_a_device_wait_can_overlap(
        monkeypatch):
    """Under the GIL only a device wait overlaps: N dead shards whose
    stages never sleep run one after another on the calling thread; a
    sweep over engines with a sync barrier spawns one pool; an admit pass
    over the same engines never syncs, so it stays inline."""
    pools = counted_pools(monkeypatch)
    ran_on = {}

    def note_thread(index, _engine):
        ran_on[index] = threading.get_ident()

    here = threading.get_ident()
    group, tree = build_group()
    crash_shards(group, tree, [0, 1, 3])
    group2, report = RecoveryOrchestrator(on_reopen=note_thread).recover(
        group, "ix")
    assert report.ok and not pools and report.max_workers == 1
    assert ran_on == {0: here, 1: here, 3: here}
    assert {k for k, _ in group2.open_tree("ix").range_scan()} \
        >= set(range(KEYS))

    def crashed_with_sync_latency():
        group, tree = build_group()
        crash_shards(group, tree, [0, 3])
        return with_sync_latency(group)

    ran_on.clear()
    _, report = RecoveryOrchestrator(on_reopen=note_thread).recover(
        crashed_with_sync_latency(), "ix")
    assert report.ok and pools == [2] and report.max_workers == 2
    assert set(ran_on) == {0, 3} and here not in ran_on.values()

    ran_on.clear()
    _, report = RecoveryOrchestrator(
        on_reopen=note_thread, admit_immediately=True).recover(
        crashed_with_sync_latency(), "ix")
    assert report.ok and pools == [2] and report.max_workers == 1
    assert ran_on == {0: here, 3: here}


def test_inline_recovery_reports_and_raises_as_the_pool_did(monkeypatch):
    """What ``_recover_shard`` catches becomes the shard's report, what it
    does not (here an interrupt) reaches the caller of ``recover`` — on
    the calling thread exactly as through ``future.result()``."""
    def broken_hook(index, _engine):
        raise RuntimeError(f"hook bug on shard {index}")

    group, tree = build_group()
    crash_shards(group, tree, [1])
    group2, report = RecoveryOrchestrator(on_reopen=broken_hook).recover(
        group, "ix")
    assert not report.ok and group2.crashed_shards() == [1]
    assert "RuntimeError: hook bug on shard 1" in report.shards[1].error

    def interrupted(index, _engine):
        raise KeyboardInterrupt
    with pytest.raises(KeyboardInterrupt):
        RecoveryOrchestrator(on_reopen=interrupted).recover(group, "ix")
