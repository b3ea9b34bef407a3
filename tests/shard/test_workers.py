"""Worker-pool semantics: order, routing, per-op errors, crash
isolation."""

import pytest

from repro import TID
from repro.errors import ReproError
from repro.shard import GroupSyncScheduler, ShardedEngine, ShardWorkerPool
from repro.storage import RandomSubsetCrash

PAGE = 512


def make(n=4, seed=9):
    group = ShardedEngine.create(n, page_size=PAGE, seed=seed)
    tree = group.create_tree("shadow", "ix", codec="uint32")
    return group, tree


def test_batch_results_in_submission_order():
    group, tree = make()
    ops = [("insert", k, TID(1, k % 100)) for k in range(100)]
    with ShardWorkerPool(tree) as pool:
        report = pool.run_batch(ops)
    assert report.ok
    assert [r.index for r in report.results] == list(range(100))
    assert [r.value for r in report.results] == list(range(100))
    assert sum(report.per_shard_ops) == 100
    assert all(r.shard == tree.shard_of(r.value) for r in report.results)


def test_mixed_batch_and_lookup_results():
    group, tree = make()
    with ShardWorkerPool(tree) as pool:
        pool.run_batch([("insert", k, TID(1, k % 100))
                        for k in range(50)])
        report = pool.run_batch(
            [("lookup", k) for k in range(60)]
            + [("delete", 10), ("lookup", 10)])
    hits = [r for r in report.results if r.op == "lookup" and
            r.result is not None]
    # the 50 inserted keys are found (including key 10, looked up before
    # its delete); 50..59 miss; the post-delete lookup of key 10 runs
    # after the delete (same shard => same worker, FIFO) and misses
    assert len(hits) == 50
    assert report.results[-1].result is None


def test_per_op_errors_do_not_stop_the_shard():
    group, tree = make()
    with ShardWorkerPool(tree) as pool:
        pool.run_batch([("insert", 1, TID(1, 1))])
        report = pool.run_batch([
            ("insert", 1, TID(1, 1)),     # duplicate
            ("delete", 999),              # missing
            ("insert", 2, TID(1, 2)),     # fine
        ])
    assert not report.ok
    assert report.crashed_shards == []
    errors = report.errors()
    assert len(errors) == 2
    assert "DuplicateKeyError" in errors[0].error
    assert "KeyNotFoundError" in errors[1].error
    assert tree.lookup(2) is not None


def test_malformed_op_rejected():
    group, tree = make()
    with ShardWorkerPool(tree) as pool:
        with pytest.raises(ReproError):
            pool.run_batch([("upsert", 1, TID(1, 1))])


def test_closed_pool_rejects_batches():
    group, tree = make()
    pool = ShardWorkerPool(tree)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(ReproError):
        pool.run_batch([("lookup", 1)])


def test_crash_mid_batch_isolates_one_shard():
    group, tree = make()
    scheduler = GroupSyncScheduler(group, dirty_threshold=4)
    victim = tree.shard_of(0)
    group.shard(victim).crash_policy = RandomSubsetCrash(p=1.0, seed=3)
    ops = [("insert", k, TID(1, k % 100)) for k in range(600)]
    with ShardWorkerPool(tree, scheduler=scheduler) as pool:
        report = pool.run_batch(ops)
    assert report.crashed_shards == [victim]
    assert not report.ok
    # every op routed to the victim after the crash carries an error;
    # every sibling op succeeded
    for r in report.results:
        if r.shard != victim:
            assert r.ok, r.error
    victim_errors = [r for r in report.results
                     if r.shard == victim and not r.ok]
    assert victim_errors, "the crash must surface in the results"
    assert group.shard(victim).dead
    assert set(group.live_shards()) == \
        set(range(len(group))) - {victim}


def test_batch_to_unrecovered_shard_reports_dead():
    group, tree = make()
    scheduler = GroupSyncScheduler(group, dirty_threshold=4)
    victim = tree.shard_of(0)
    group.shard(victim).crash_policy = RandomSubsetCrash(p=1.0, seed=3)
    with ShardWorkerPool(tree, scheduler=scheduler) as pool:
        pool.run_batch([("insert", k, TID(1, k % 100))
                        for k in range(600)])
        # second batch: the victim is dead from the start
        report = pool.run_batch([("lookup", k) for k in range(40)])
    for r in report.results:
        if r.shard == victim:
            assert not r.ok and "dead" in r.error
        else:
            assert r.ok


# ---------------------------------------------------------------------------
# submit(): the serving layer's owner-thread building block
# ---------------------------------------------------------------------------

def test_submit_runs_fifo_on_the_owner_thread():
    import threading

    group, tree = make()
    order = []
    names = set()

    def step(i):
        def run():
            order.append(i)
            names.add(threading.current_thread().name)
        return run

    with ShardWorkerPool(tree) as pool:
        waits = [pool.submit(0, step(i)) for i in range(20)]
        for done, errbox in waits:
            assert done.wait(timeout=10)
            assert "error" not in errbox
    assert order == list(range(20)), "submissions must drain FIFO"
    assert len(names) == 1, "one shard means exactly one owner thread"


def test_submit_captures_errors_and_the_worker_survives():
    group, tree = make()
    with ShardWorkerPool(tree) as pool:
        def boom():
            raise ValueError("deliberate")
        done, errbox = pool.submit(0, boom)
        assert done.wait(timeout=10)
        assert isinstance(errbox["error"], ValueError)
        # the owner thread survived the escape and keeps serving
        done2, errbox2 = pool.submit(0, lambda: None)
        assert done2.wait(timeout=10)
        assert "error" not in errbox2


def test_submit_after_close_raises():
    group, tree = make()
    pool = ShardWorkerPool(tree)
    pool.close()
    with pytest.raises(ReproError):
        pool.submit(0, lambda: None)


# ---------------------------------------------------------------------------
# which thread runs a batch's share
# ---------------------------------------------------------------------------

def record_threads(tree, *ops):
    """Wrap each member tree's *ops* to note, per shard, the names of
    the threads that ran them."""
    import threading

    seen = {i: [] for i in range(len(tree.trees))}
    for index, member in enumerate(tree.trees):
        for op in ops:
            def traced(*args, _raw=getattr(member, op), _index=index):
                seen[_index].append(threading.current_thread().name)
                return _raw(*args)
            setattr(member, op, traced)
    return seen


def shares(reg) -> tuple[int, int]:
    """(shares run on the caller, shares queued on an owner) so far."""
    from repro.obs import metric_key

    counters = reg.snapshot()["counters"]
    return tuple(counters.get(metric_key("shard.worker.shares",
                                         {"ran": ran}), 0)
                 for ran in ("caller", "owner"))


def test_zero_latency_batch_runs_on_the_calling_thread():
    import threading

    from repro.obs import scoped_registry

    group, tree = make()
    keys = range(80)
    tree.insert_many([(k, TID(1, k)) for k in keys])
    seen = record_threads(tree, "lookup")
    with scoped_registry() as reg, ShardWorkerPool(tree) as pool:
        report = pool.run_batch([("lookup", k) for k in keys])
        assert shares(reg) == (4, 0), "no share may go to an owner"
    assert report.ok and all(r.result is not None for r in report.results)
    me = threading.current_thread().name
    assert all(names and set(names) == {me} for names in seen.values())


def test_batch_waits_behind_a_submit_queued_or_running_on_its_shard():
    import threading
    import time

    from repro.obs import scoped_registry

    group, tree = make()
    tree.insert_many([(k, TID(1, k)) for k in range(80)])
    busy = tree.shard_of(0)
    order = []
    seen = record_threads(tree, "lookup")
    original = tree.trees[busy].lookup

    def lookup(value):
        order.append("batch")
        return original(value)
    tree.trees[busy].lookup = lookup
    gate, entered = threading.Event(), threading.Event()

    def running():
        entered.set()
        assert gate.wait(timeout=10)
        order.append("running")

    with scoped_registry() as reg, ShardWorkerPool(tree) as pool:
        pool.submit(busy, running)
        assert entered.wait(timeout=10)
        queued, _ = pool.submit(busy, lambda: order.append("queued"))
        box = {}
        batch = threading.Thread(
            target=lambda: box.update(
                report=pool.run_batch([("lookup", k) for k in range(80)])),
            name="batch-caller")
        batch.start()
        deadline = time.monotonic() + 10
        while shares(reg) != (3, 1):      # the busy shard's share queued
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert "batch" not in order
        gate.set()
        batch.join(timeout=10)
        assert not batch.is_alive()
    assert box["report"].ok
    # FIFO on the busy shard: both jobs ahead of the batch ran first
    assert order[:2] == ["running", "queued"] and "batch" in order[2:]
    assert set(seen[busy]) == {f"shard-worker-{busy}"}
    assert all(set(names) == {"batch-caller"}
               for index, names in seen.items() if index != busy)


def test_device_latency_keeps_the_batch_on_the_owner_threads():
    from repro.obs import scoped_registry

    group = ShardedEngine.create(4, page_size=PAGE, seed=9,
                                 read_latency=1e-5)
    tree = group.create_tree("shadow", "ix", codec="uint32")
    tree.insert_many([(k, TID(1, k)) for k in range(80)])
    seen = record_threads(tree, "lookup")
    with scoped_registry() as reg, ShardWorkerPool(tree) as pool:
        report = pool.run_batch([("lookup", k) for k in range(80)])
        assert shares(reg) == (0, 4)
        # one share has nothing to overlap with: it runs on the caller
        single = [k for k in range(80) if tree.shard_of(k) == 0]
        assert pool.run_batch([("lookup", k) for k in single]).ok
        assert shares(reg) == (1, 4)
    assert report.ok
    for index, names in seen.items():
        assert f"shard-worker-{index}" in names


def test_a_sync_counts_only_where_the_batch_can_sync():
    from repro.obs import scoped_registry

    group, tree = make()
    tree.insert_many([(k, TID(1, k)) for k in range(80)])
    for engine in group.shards:
        engine.sync_latency = 1e-5
    lookups = [("lookup", k) for k in range(80)]
    with scoped_registry() as reg:
        with ShardWorkerPool(tree) as pool:
            assert pool.run_batch(lookups).ok
            assert shares(reg) == (4, 0), "nothing here syncs"
        scheduler = GroupSyncScheduler(group)
        with ShardWorkerPool(tree, scheduler=scheduler) as pool:
            assert pool.run_batch(lookups).ok
            assert shares(reg) == (4, 4), "pressure syncs can overlap"
