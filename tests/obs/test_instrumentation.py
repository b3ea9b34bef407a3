"""End-to-end instrumentation: the storage stack feeds the registry."""

import json

import pytest

from repro import CrashError, StorageEngine, TID, TREE_CLASSES
from repro.core.concurrency import SplitLock
from repro.core.detect import Action, DetectionReport, Kind, RepairLog
from repro.obs import scoped_registry, scoped_trace
from repro.storage import CrashOnceKeepingPages
from repro.tools.fsck import FsckReport
from repro.tools.stats import main as stats_main


def build(kind="shadow", n=200, **engine_kw):
    engine = StorageEngine.create(page_size=512, seed=3, **engine_kw)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    for i in range(n):
        tree.insert(i, TID(1, i % 100))
        if (i + 1) % 64 == 0:
            engine.sync()
    engine.sync()
    return engine, tree


def test_buffer_pool_feeds_registry():
    with scoped_registry() as reg, scoped_trace():
        engine, tree = build(pool_capacity=4)
        tree.lookup(123)
        counters = reg.snapshot()["counters"]
        hits = tree.file.pool.stats.hits
        assert counters["buffer_pool.hits[file=ix]"] == hits
        assert counters["buffer_pool.misses[file=ix]"] > 0
        assert counters["buffer_pool.evictions[file=ix]"] > 0


def test_eviction_emits_trace_events():
    with scoped_registry(), scoped_trace() as log:
        engine, tree = build(pool_capacity=4)
        evicts = log.events("evict")
        assert evicts, "capacity-4 pool under a 200-key build must evict"
        assert all(e.file == "ix" for e in evicts)


def test_engine_sync_metrics_and_trace():
    with scoped_registry() as reg, scoped_trace() as log:
        engine, tree = build()
        counters = reg.snapshot()["counters"]
        completed = engine.syncs_completed.value
        assert counters["engine.syncs.completed"] == completed > 0
        assert counters["engine.sync.pages_written"] > 0
        assert counters["engine.sync.counter_advances"] > 0
        hists = reg.snapshot()["histograms"]
        assert hists["engine.sync.seconds"]["count"] == completed
        syncs = log.events("sync")
        assert len(syncs) == completed
        assert all(e.token is not None and e.duration is not None
                   for e in syncs)


def test_crashed_sync_counts_separately():
    with scoped_registry() as reg, scoped_trace() as log:
        engine, tree = build()
        completed = engine.syncs_completed.value
        tree.insert(10_000, TID(9, 9))
        with pytest.raises(CrashError):
            engine.sync(CrashOnceKeepingPages(set()))
        assert engine.syncs_completed.value == completed   # not inflated
        assert engine.syncs_crashed.value == 1
        counters = reg.snapshot()["counters"]
        assert counters["engine.syncs.crashed"] == 1
        assert len(log.events("crash")) == 1


def test_splits_counted_timed_and_traced():
    with scoped_registry() as reg, scoped_trace() as log:
        engine, tree = build(kind="reorg")
        snap = reg.snapshot()
        n = snap["counters"]["tree.splits[kind=reorg]"]
        assert n == tree.splits.value > 0
        assert snap["histograms"]["tree.split.seconds[kind=reorg]"][
            "count"] > 0
        splits = log.events("split")
        assert splits and all(e.detail["technique"] == "reorg"
                              for e in splits)


def test_repair_log_binding_feeds_registry_and_trace():
    with scoped_registry() as reg, scoped_trace() as log:
        rlog = RepairLog()
        rlog.bind_owner(kind="shadow", file_name="ix",
                        token_source=lambda: 42)
        rlog.add(DetectionReport(Kind.ZEROED_CHILD, 7,
                                 Action.REBUILT_FROM_PREV),
                 duration=0.005)
        snap = reg.snapshot()
        assert snap["counters"][
            "tree.repairs[kind=shadow,repair=zeroed-child]"] == 1
        assert snap["histograms"][
            "tree.repair.seconds[kind=shadow,repair=zeroed-child]"][
            "count"] == 1
        (ev,) = log.events("repair")
        # trace-event field equality, not a sync-token freshness check
        assert ev.token == 42 and ev.page == 7  # lint: disable=R004
        assert ev.detail["action"] == "rebuilt-from-prev"
        assert rlog.latency_summary()["zeroed-child"]["count"] == 1


def test_unbound_repair_log_stays_silent():
    with scoped_registry() as reg, scoped_trace() as log:
        rlog = RepairLog()
        rlog.add(DetectionReport(Kind.LOST_ROOT, 1, Action.VERIFIED_ONLY))
        assert len(rlog) == 1
        assert reg.snapshot()["counters"] == {}
        assert len(log) == 0


def test_split_lock_acquisitions_counted():
    with scoped_registry() as reg, scoped_trace():
        lock = SplitLock()
        with lock:
            pass
        with lock:
            pass
        assert lock.acquisitions.value == 2
        assert reg.snapshot()["counters"]["split_lock.acquisitions"] == 2


def test_fsck_findings_counted_and_traced():
    with scoped_registry() as reg, scoped_trace() as log:
        report = FsckReport()
        report.add("error", 3, "zeroed page")
        report.add("warn", 4, "stale token")
        report.add("error", 5, "orphan")
        counters = reg.snapshot()["counters"]
        assert counters["fsck.findings[severity=error]"] == 2
        assert counters["fsck.findings[severity=warn]"] == 1
        assert len(log.events("fsck_finding")) == 3


def test_stats_cli_json_reports_nonzero_core_metrics(capsys):
    with scoped_registry(), scoped_trace():
        rc = stats_main(["--json", "--kinds", "shadow", "--keys", "64"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    counters = doc["metrics"]["counters"]
    assert counters["tree.splits[kind=shadow]"] > 0
    assert counters["engine.syncs.completed"] > 0
    assert any(key.startswith("tree.repairs[kind=shadow")
               for key in counters)
    assert any(key.startswith("tree.repair.seconds[kind=shadow")
               for key in doc["metrics"]["histograms"])
    assert doc["trace"]["counts"]["crash"] > 0


def test_stats_cli_says_where_each_shard_recovery_ran(capsys):
    with scoped_registry(), scoped_trace():
        rc = stats_main(["--json", "--kinds", "shadow", "--keys", "64",
                         "--shards", "4"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["shard_recovery"]
    # the demo crashes every other shard; nothing waits on a device, so
    # the pass runs them on the calling thread
    assert sorted(row["shard"] for row in rows) == [0, 2]
    assert all(row["ok"] and row["threads"] == 1 for row in rows)
