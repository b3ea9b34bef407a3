"""Instant restart: serve traffic cold while the background heal runs.

The admit pass must put crashed shards back in service at reopen cost
(no sweep), the heal queue must drive the deferred repairs to the same
final state the stop-the-world pass reaches, hot subtrees must heal
first under access-frequency priority, and the worker pool must
interleave heal units between foreground operations.
"""

from time import perf_counter

import pytest

from repro import TID, CrashError
from repro.obs import get_registry, get_trace, metric_key, scoped_trace
from repro.shard import (RecoveryOrchestrator, ShardWorkerPool,
                         ShardedEngine, recover_group)
from repro.storage import RandomSubsetCrash
from repro.storage.engine import EngineDeadError
from repro.tools.fsck import fsck_group

PAGE = 512
KEYS = 240


def build_group(n=4, keys=KEYS, seed=17, kind="shadow", **latency):
    group = ShardedEngine.create(n, page_size=PAGE, seed=seed, **latency)
    tree = group.create_tree(kind, "ix", codec="uint32")
    for k in range(keys):
        tree.insert(k, TID(1 + (k >> 8), k & 0xFF))
        if (k + 1) % 80 == 0:
            group.sync_all()
    group.sync_all()
    return group, tree


def crash_shards(group, tree, victims, *, keys=KEYS, seed=23):
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


def admit(group, **kwargs):
    orchestrator = RecoveryOrchestrator(admit_immediately=True, **kwargs)
    return orchestrator.recover(group, "ix")


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------

def test_admit_serves_committed_keys_before_any_heal_unit_runs():
    group, tree = build_group()
    crash_shards(group, tree, [0, 2])
    group2, report = admit(group)
    assert report.ok
    assert report.heal is not None
    by_shard = {r.shard: r for r in report.shards}
    for index in (0, 2):
        assert by_shard[index].mode == "admit"
        # admission drove zero repairs: no sweep, no scan
        assert by_shard[index].keys_seen == 0
        assert by_shard[index].drive_seconds == 0.0
    # nothing healed yet — the sweep has not even been seeded
    heal = report.heal
    assert heal.pending_shards() == [0, 2]
    assert not heal.done
    for state in heal.progress().values():
        assert state["units_done"] == 0
    # yet every committed key already answers through the serving handle
    serving = heal.tree
    for k in range(0, KEYS, 17):
        assert serving.lookup(k) is not None, f"cold lookup lost key {k}"
    # ttfq is the cold-reopen cost, not the whole pass
    assert report.time_to_first_query <= report.wall_seconds


@pytest.mark.parametrize("read_latency", [0.0, 0.001],
                         ids=["inline", "pooled"])
def test_admit_time_to_first_query_is_what_the_caller_waited(read_latency):
    """An admit pass returns once every crashed shard is reopened, so its
    time to first query is the pass: at least the sum of the reopens when
    they run one after another on the calling thread, at least the
    slowest when a pool overlaps their page reads."""
    group, tree = build_group(read_latency=read_latency)
    crash_shards(group, tree, [1, 3])
    started = perf_counter()
    group2, report = admit(group)
    waited = perf_counter() - started
    restarts = [report.shards[i].restart_seconds for i in (1, 3)]
    if read_latency:
        assert report.max_workers == 2
        assert max(restarts) <= report.time_to_first_query
    else:
        assert report.max_workers == 1
        assert sum(restarts) <= report.time_to_first_query
    assert report.time_to_first_query <= waited


def test_stop_the_world_report_has_no_heal_queue():
    group, tree = build_group()
    crash_shards(group, tree, [1])
    group2, report = RecoveryOrchestrator().recover(group, "ix")
    assert report.ok
    assert report.heal is None
    assert report.time_to_first_query == report.wall_seconds


def test_admit_of_a_clean_group_has_nothing_to_heal():
    group, tree = build_group()
    group2, report = admit(group)
    assert report.ok
    assert report.heal is None or report.heal.shard_indexes == []


# ---------------------------------------------------------------------------
# access-frequency priority
# ---------------------------------------------------------------------------

def test_hot_subtree_heals_before_cold_units():
    group, tree = build_group()
    crash_shards(group, tree, [0])
    group2, report = admit(group)
    heal = report.heal
    serving = heal.tree
    member = serving.trees[0]
    healed_units = []
    orig = member.heal_unit

    def recording_heal_unit(key):
        healed_units.append(key)
        return orig(key)

    member.heal_unit = recording_heal_unit
    # hammer one key routed to the healing shard — its covering unit
    # must jump the queue
    hot = next(k for k in range(KEYS) if serving.shard_of(k) == 0
               and serving.codec.encode(k) > serving.codec.encode(0))
    for _ in range(8):
        serving.lookup(hot)
    heal.step(0, max_units=3)
    assert healed_units, "stepping must heal at least one unit"
    sweep = heal._shards[0].sweep
    expected = sweep._covering_unit(serving.codec.encode(hot))
    assert healed_units[0] == expected, (
        f"hot unit {expected!r} healed at position "
        f"{healed_units.index(expected) if expected in healed_units else -1}")


def test_cold_sweep_heals_in_ascending_deterministic_order():
    group, tree = build_group()
    crash_shards(group, tree, [0])
    group2, report = admit(group)
    member = report.heal.tree.trees[0]
    healed_units = []
    orig = member.heal_unit
    member.heal_unit = lambda key: (healed_units.append(key), orig(key))[1]
    report.heal.step(0, max_units=4)
    assert len(healed_units) >= 2
    assert healed_units == sorted(healed_units), (
        "with no foreground accesses the heal must run in ascending "
        "unit order, matching the stop-the-world drive")


# ---------------------------------------------------------------------------
# equivalence with the stop-the-world sweep
# ---------------------------------------------------------------------------

def test_full_heal_matches_stop_the_world_final_state():
    group, tree = build_group(seed=31)
    crash_shards(group, tree, [0, 1, 2, 3], seed=41)
    snaps = [{name: disk.snapshot()
              for name, disk in engine._disks.items()}
             for engine in group.shards]

    sweep_group, sweep_report = RecoveryOrchestrator().recover(group, "ix")
    assert sweep_report.ok
    sweep_keys = list(sweep_group.open_tree("ix").range_scan())

    for engine, snap in zip(group.shards, snaps):
        for name, disk in engine._disks.items():
            disk.restore(snap[name])
    admit_group, admit_report = admit(group)
    assert admit_report.ok
    heal = admit_report.heal
    heal.drain()
    assert heal.healed
    assert heal.time_to_full_heal() is not None
    admit_keys = list(heal.tree.range_scan())
    assert admit_keys == sweep_keys
    assert fsck_group(admit_group).errors == 0
    # the healed group accepts and persists new work
    heal.tree.insert(1_000_000, TID(9, 9))
    assert admit_group.sync_all() == []


# ---------------------------------------------------------------------------
# worker-pool interleaving
# ---------------------------------------------------------------------------

def test_worker_pool_interleaves_heal_units_with_foreground_ops():
    group, tree = build_group()
    crash_shards(group, tree, [0, 2])
    group2, report = admit(group)
    heal = report.heal
    with ShardWorkerPool(heal.tree) as pool:
        assert pool.heal is heal, "pool must adopt the attached queue"
        batch = [("lookup", k) for k in range(KEYS)]
        result = pool.run_batch(batch)
        assert result.ok, result.errors()[:3]
        assert all(r.result is not None for r in result.results)
        progress = heal.progress()
        for index in (0, 2):
            assert progress[index]["units_done"] > 0, (
                f"shard {index} paid no heal units across {KEYS} ops")
        # idle-time drain finishes whatever the interleaving left
        assert pool.run_heal() == []
    assert heal.healed
    assert fsck_group(group2).errors == 0


def test_a_healed_shard_skips_the_heal_bookkeeping():
    group, tree = build_group()
    crash_shards(group, tree, [0, 2])
    group2, report = admit(group)
    heal = report.heal
    heal.drain(0)
    assert heal.pending_shards() == [2]
    calls = {"note_access": [], "step": []}
    for name, shards in calls.items():
        def counted(shard_index, *args, _raw=getattr(heal, name),
                    _shards=shards, **kwargs):
            _shards.append(shard_index)
            return _raw(shard_index, *args, **kwargs)
        setattr(heal, name, counted)
    with ShardWorkerPool(heal.tree) as pool:
        result = pool.run_batch([("lookup", k) for k in range(KEYS)])
    assert result.ok
    for shards in calls.values():
        # shard 0 healed before the batch; 1 and 3 never crashed
        assert set(shards) == {2}


def test_a_heal_that_syncs_keeps_the_batch_on_the_owner_threads():
    from repro.obs import scoped_registry

    group, tree = build_group()
    crash_shards(group, tree, [0, 2])
    group2, report = admit(group)
    heal = report.heal
    for engine in group2.shards:
        engine.sync_latency = 1e-5
    batch = [("lookup", k) for k in range(KEYS)]
    with scoped_registry() as reg, ShardWorkerPool(heal.tree) as pool:
        # shards 0 and 2 heal, and a heal syncs at its fixpoint
        assert pool.run_batch(batch).ok
        counters = reg.snapshot()["counters"]
        assert counters[metric_key("shard.worker.shares",
                                   {"ran": "owner"})] == 4
        assert pool.run_heal() == []
        assert heal.healed
        # healed: nothing in the batch syncs, so the caller runs it
        assert pool.run_batch(batch).ok
        counters = reg.snapshot()["counters"]
        assert counters[metric_key("shard.worker.shares",
                                   {"ran": "caller"})] == 4


def test_run_heal_without_a_queue_is_a_no_op():
    group, tree = build_group()
    with ShardWorkerPool(tree) as pool:
        assert pool.heal is None
        assert pool.run_heal() == []


def test_unadmitted_dead_shard_stays_gated_while_siblings_serve():
    group, tree = build_group()
    crash_shards(group, tree, [1, 3])

    def refuse(index, engine):
        if index == 3:
            raise CrashError("admission denied by test")

    group2, report = admit(group, on_reopen=refuse)
    assert report.failed_shards() == [3]
    assert 3 in group2.crashed_shards()
    heal = report.heal
    assert heal.shard_indexes == [1], "only admitted shards heal"
    serving = heal.tree
    live_key = next(k for k in range(KEYS) if serving.shard_of(k) == 1)
    dead_key = next(k for k in range(KEYS) if serving.shard_of(k) == 3)
    assert serving.lookup(live_key) is not None
    with pytest.raises(EngineDeadError):
        serving.lookup(dead_key)
    heal.drain()
    assert heal.healed


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

def test_admit_records_ttfq_and_full_heal_metrics():
    group, tree = build_group()
    crash_shards(group, tree, [0, 2])
    before = get_registry().snapshot()["histograms"]
    group2, report = admit(group)
    report.heal.drain()
    after = get_registry().snapshot()["histograms"]

    def grew(name):
        key = metric_key(name, {})
        return after.get(key, {}).get("count", 0) \
            - before.get(key, {}).get("count", 0)

    assert grew("shard.recovery.ttfq_seconds") == 2
    assert grew("shard.heal.full_heal_seconds") == 2


def test_heal_emits_progress_trace_events():
    group, tree = build_group()
    crash_shards(group, tree, [1])
    group2, report = admit(group)
    with scoped_trace() as log:
        report.heal.drain()
        events = log.events("heal_progress")
    assert events, "a full heal must emit heal_progress events"
    final = events[-1].detail
    assert final["shard"] == 1
    assert final["done"] is True and final["failed"] is False
    assert final["keys_seen"] > 0
    assert 0 < final["verify_seconds"] < events[-1].duration
    assert all(e.detail["verify_seconds"] is None for e in events[:-1])


def test_recover_group_wrapper_passes_admit_through():
    group, tree = build_group()
    crash_shards(group, tree, [2])
    group2, report = recover_group(group, "ix", admit_immediately=True)
    assert report.ok
    assert report.heal is not None
    assert report.heal.pending_shards() == [2]
    report.heal.drain()
    assert report.heal.healed
