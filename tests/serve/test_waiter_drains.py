"""A client waiting on a pipelined request drains its idle shard itself.

``Server._admit`` installs a one-shot helper on every admitted request's
future; the first ``wait`` that finds the future unresolved runs it.
The helper claims the shard with ``claim(shard, behind_drains=True)``,
granted only while the owner runs nothing and every queued pool item is
a posted, not-yet-started drain, and then runs the buffered requests on
the waiting thread through the drain's own chunk body until the future
resolves.  These tests hold that path to the pipeline's contract: one
thread at a time per shard, nothing overtakes a barrier, scan, batch or
heal, and an acked commit covers what its session completed.

Several tests hold the pool's lifecycle lock (a reentrant condition) so
that the owner thread, once it has dequeued an item, cannot start it:
the claim rule is then observed with no race against the owner.
"""

import random
import sys
import threading
from contextlib import contextmanager
from time import monotonic, sleep

import pytest

from repro.errors import CrashError, ReproError
from repro.obs import scoped_registry
from repro.shard import RecoveryOrchestrator
from repro.storage import RandomSubsetCrash

from .test_inline_calls import ShardGuard, key_on_shard, make, tid_for


def keys_on_shard(tree, shard, count, start=0):
    keys = []
    k = start
    while len(keys) < count:
        k = key_on_shard(tree, shard, k)
        keys.append(k)
        k += 1
    return keys


@contextmanager
def owner_held(pool):
    """Whatever the owners dequeue meanwhile waits to start."""
    with pool._lifecycle:
        yield


def ran_on(shard_tree, op):
    """Record the thread that runs *op* on one shard's tree."""
    threads = []
    real = getattr(shard_tree, op)

    def traced(*args, **kwargs):
        threads.append(threading.current_thread())
        return real(*args, **kwargs)
    setattr(shard_tree, op, traced)
    return threads


def wait_until(predicate, timeout=10.0):
    deadline = monotonic() + timeout
    while not predicate():
        assert monotonic() < deadline, "condition never held"
        sleep(0.001)


# -- the claim rule ------------------------------------------------------------

def test_a_claim_behind_drains_ignores_only_not_yet_started_posts():
    group, tree, server = make()
    pool = server.pool
    with server:
        with owner_held(pool):
            pool.post(0, lambda: None)
            assert not pool.claim(0)        # a plain claim counts it
            assert pool.claim(0, behind_drains=True)
            assert not pool.claim(0, behind_drains=True)  # one at a time
            pool.release(0)
        with owner_held(pool):
            pool.submit(0, lambda: None)
            pool.post(0, lambda: None)
            # a queued job: a waiter would overtake it
            assert not pool.claim(0, behind_drains=True)
        started, gate = threading.Event(), threading.Event()
        pool.post(1, lambda: (started.set(), gate.wait(10)))
        assert started.wait(10)
        try:
            # the owner runs a post: it is no longer "not yet started"
            assert not pool.claim(1, behind_drains=True)
        finally:
            gate.set()
        wait_until(lambda: pool.claim(1, behind_drains=True))
        pool.release(1)
    assert not pool.claim(0, behind_drains=True)    # closed


@pytest.mark.parametrize("job", ["barrier", "scan"])
def test_a_waiter_is_refused_while_a_job_is_queued_ahead(job):
    with scoped_registry() as reg:
        group, tree, server = make()
    pool = server.pool
    k = key_on_shard(tree, 0)
    seen = []
    if job == "barrier":
        def fn():
            seen.append(tree.live_tree(0).lookup(k))
            group.shard(0).sync()
    else:
        def fn():
            seen.append([key for key, _ in
                         tree.live_tree(0).range_scan()])
    with server:
        session = server.session()
        inserts = ran_on(tree.trees[0], "insert")
        with owner_held(pool):
            pool.submit(0, fn)
            request = session.submit("insert", k, tid_for(k))
            assert not request.future.wait(timeout=0.05)
            assert server.queues.depth(0) == 1
        assert request.future.wait(timeout=10)
        assert request.future.error() is None
        assert inserts == [pool._threads[0]]
        assert reg.snapshot()["counters"].get("serve.helped", 0) == 0
    # the job ran first: it never saw the insert
    assert seen == ([None] if job == "barrier" else [[]])


def test_a_waiter_drains_its_shard_when_only_a_posted_drain_is_pending():
    with scoped_registry() as reg:
        group, tree, server = make(batch_max=4)
    pool = server.pool
    keys = keys_on_shard(tree, 0, 10)
    with server:
        session = server.session()
        inserts = ran_on(tree.trees[0], "insert_many")
        with owner_held(pool):
            requests = [session.submit("insert", k, tid_for(k))
                        for k in keys]
            # the first chunk holds the awaited request: one chunk runs
            assert requests[0].future.wait(timeout=10)
            assert [r.future.done() for r in requests] == \
                [True] * 4 + [False] * 6
            # the last needs two more chunks, all on this thread
            assert requests[-1].future.wait(timeout=10)
            assert server.queues.depth(0) == 0
        assert inserts == [threading.current_thread()] * 3
        assert all(r.future.error() is None for r in requests)
        counters = reg.snapshot()["counters"]
        assert counters["serve.helped"] == 10 == counters["serve.queued"]
        # the owner's posted drain found nothing and cleared the flag
        wait_until(lambda: server.queues.idle(0))
        assert session.get(keys[3]) == tid_for(keys[3])


def test_the_helper_is_one_shot_and_a_refused_waiter_still_resolves():
    group, tree, server = make()
    pool = server.pool
    k = key_on_shard(tree, 1)
    gate = threading.Event()
    with server:
        session = server.session()
        pool.submit(1, lambda: gate.wait(10))   # the owner is busy
        request = session.submit("insert", k, tid_for(k))
        assert request.future.helper is not None
        assert not request.future.wait(timeout=0.02)
        assert request.future.helper is None    # spent on the refusal
        gate.set()
        assert request.future.result(timeout=10) is None


def test_an_acked_commit_covers_every_write_a_waiter_ran():
    with scoped_registry() as reg:
        group, tree, server = make(n=2)
    keys = [k for shard in (0, 1) for k in keys_on_shard(tree, shard, 40)]
    with server:
        session = server.session()
        for start in range(0, len(keys), 16):
            burst = [session.submit("insert", k, tid_for(k))
                     for k in keys[start:start + 16]]
            for request in burst:
                assert request.future.result(timeout=10) is None
        assert session.commit() > 0
        assert reg.snapshot()["counters"]["serve.helped"] > 0
    # crash every shard in a sync of later, uncommitted writes
    for index in (0, 1):
        group.shard(index).crash_policy = RandomSubsetCrash(
            p=1.0, seed=31 + index)
    for k in range(90_000, 90_200):
        try:
            tree.insert(k, tid_for(k))
        except (CrashError, ReproError):
            continue
    for index in (0, 1):
        if not group.shard(index).dead:
            try:
                group.shard(index).sync()
            except CrashError:
                pass
    assert group.crashed_shards() == [0, 1]
    recovered, report = RecoveryOrchestrator().recover(group, "ix")
    assert report.ok
    scanned = dict(recovered.open_tree("ix").range_scan())
    assert {k: scanned.get(k) for k in keys} == \
        {k: tid_for(k) for k in keys}


# -- one thread at a time per shard -------------------------------------------

def test_one_thread_per_shard_while_waiters_drain_under_mixed_traffic():
    overlaps = []
    with scoped_registry() as reg:
        group, tree, server = make()
        for shard, shard_tree in enumerate(tree.trees):
            ShardGuard(shard, shard_tree, group.shard(shard), overlaps)
        errors = []
        models = [dict() for _ in range(4)]

        def client(cid):
            rng = random.Random(cid)
            session = server.session()
            model = models[cid]
            next_key = 100_000 * (cid + 1)
            try:
                for i in range(300):
                    roll = rng.random()
                    if roll < 0.5:
                        burst = []
                        for _ in range(rng.randrange(1, 12)):
                            burst.append((next_key, session.submit(
                                "insert", next_key, tid_for(next_key))))
                            next_key += 1
                        # wait in submission order or reversed: the
                        # helper drains FIFO either way
                        if rng.random() < 0.5:
                            burst.reverse()
                        for key, request in burst:
                            assert request.future.result(timeout=30) \
                                is None
                            model[key] = tid_for(key)
                    elif roll < 0.65 and model:
                        key = rng.choice(sorted(model))
                        session.update(key, tid_for(key + 1))
                        model[key] = tid_for(key + 1)
                    elif roll < 0.75 and model:
                        key = rng.choice(sorted(model))
                        session.delete(key)
                        del model[key]
                    elif roll < 0.9:
                        key = rng.choice(sorted(model) or [next_key])
                        assert session.get(key) == model.get(key)
                    else:
                        session.commit()
                session.commit()
            except (ReproError, AssertionError) as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # preempt inside the trees often
        try:
            with server:
                threads = [threading.Thread(target=client, args=(cid,))
                           for cid in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
                rows = dict(server.range_scan())
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:3]
        assert not overlaps, overlaps[:5]
        expected = {}
        for model in models:
            expected.update(model)
        assert rows == expected
        counters = reg.snapshot()["counters"]
        helped = counters.get("serve.helped", 0)
        queued = counters.get("serve.queued", 0)
        ran_here = counters.get("serve.ran_here", 0)
        requests = sum(v for k, v in counters.items()
                       if k.startswith("serve.requests["))
        assert 0 < helped <= queued
        assert ran_here + queued == requests
