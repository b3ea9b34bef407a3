"""Synchronous calls on an idle shard run on the calling thread.

``Session.get`` / ``insert`` / ``delete`` / ``update`` go through
``Server.call``: when the routed shard has nothing queued or running in
the pool and no drain scheduled, the caller claims the shard and runs
the operation itself.  These tests hold that shortcut to the pipeline's
contract: one thread at a time per shard, a synchronous call never
overtakes a buffered request, and ``close()`` strands nobody.
"""

import random
import sys
import threading

import pytest

from repro import TID
from repro.errors import ReproError
from repro.obs import scoped_registry
from repro.serve import Server, ServerClosed
from repro.shard import ShardedEngine

PAGE = 512

#: the per-shard entry points the exclusivity guard wraps
TREE_ENTRIES = ("lookup", "insert", "delete", "insert_many",
                "delete_many", "range_scan")


def tid_for(i):
    return TID(1 + (i >> 8), i & 0xFF)


def make(n=2, seed=23, **kwargs):
    group = ShardedEngine.create(n, page_size=PAGE, seed=seed)
    tree = group.create_tree("hybrid", "ix", codec="uint32")
    return group, tree, Server(tree, **kwargs)


def key_on_shard(tree, shard, start=0):
    k = start
    while tree.shard_of(k) != shard:
        k += 1
    return k


class ShardGuard:
    """Wraps one shard's tree and engine entry points and records every
    moment two threads were inside them at once."""

    def __init__(self, shard, tree, engine, overlaps):
        self.shard = shard
        self.inside = None
        self.lock = threading.Lock()
        self.overlaps = overlaps
        for owner, names in ((tree, TREE_ENTRIES), (engine, ("sync",))):
            for name in names:
                setattr(owner, name, self.wrap(name, getattr(owner, name)))

    def wrap(self, name, fn):
        def guarded(*args, **kwargs):
            me = threading.get_ident()
            with self.lock:
                outer = self.inside
                if outer is not None and outer != me:
                    self.overlaps.append((self.shard, name))
                self.inside = me
            try:
                result = fn(*args, **kwargs)
                if name == "range_scan":
                    result = list(result)   # consume inside the guard
                return result
            finally:
                if outer is None:
                    with self.lock:
                        self.inside = None
        return guarded


def test_one_thread_at_a_time_per_shard_under_mixed_traffic():
    overlaps = []
    with scoped_registry() as reg:
        group, tree, server = make()
        for shard, shard_tree in enumerate(tree.trees):
            ShardGuard(shard, shard_tree, group.shard(shard), overlaps)
        errors = []

        def client(cid):
            rng = random.Random(cid)
            session = server.session()
            base = 10_000 * (cid + 1)
            inserted = []
            try:
                for i in range(1200):
                    roll = rng.random()
                    key = base + i
                    if roll < 0.3:
                        session.insert(key, tid_for(key))
                        inserted.append(key)
                    elif roll < 0.5 and inserted:
                        session.update(rng.choice(inserted), tid_for(i))
                    elif roll < 0.6 and inserted:
                        session.delete(inserted.pop())
                    elif roll < 0.8:
                        for k in range(key, key + 4):
                            session.submit("insert", 500_000 + base + 4 * i
                                           + k - key, tid_for(k))
                    else:
                        session.get(rng.choice(inserted or [key]))
                    if i % 16 == 15:
                        session.commit()
                session.commit()
            except ReproError as exc:
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
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert server.range_scan()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert not overlaps, overlaps[:5]
        counters = reg.snapshot()["counters"]
        ran_here = counters.get("serve.ran_here", 0)
        queued = counters.get("serve.queued", 0)
        requests = sum(v for k, v in counters.items()
                       if k.startswith("serve.requests["))
        # both paths were exercised, and every request took exactly one
        assert ran_here > 0 and queued > 0
        assert ran_here + queued == requests


def test_a_synchronous_call_runs_on_the_calling_thread_when_idle():
    group, tree, server = make()
    seen = []
    shard_tree = tree.trees[0]
    real = shard_tree.lookup

    def lookup(value):
        seen.append(threading.current_thread())
        return real(value)
    shard_tree.lookup = lookup
    with server:
        s = server.session()
        k = key_on_shard(tree, 0)
        s.insert(k, tid_for(k))
        assert s.get(k) == tid_for(k)
    assert seen == [threading.current_thread()]


def test_get_after_a_buffered_insert_waits_behind_a_parked_owner():
    # the insert is buffered behind a parked owner: the pool is busy, so
    # the get must queue behind the insert, not run ahead of it
    group, tree, server = make()
    with server:
        s = server.session()
        k = key_on_shard(tree, 0)
        gate = threading.Event()
        server.pool.submit(0, lambda: gate.wait(10))
        s.submit("insert", k, tid_for(k))
        answer = []
        getter = threading.Thread(target=lambda: answer.append(s.get(k)))
        getter.start()
        getter.join(timeout=0.1)
        assert getter.is_alive()        # queued, not run ahead
        gate.set()
        getter.join(timeout=10)
        assert answer == [tid_for(k)]


def test_get_after_an_insert_whose_drain_is_not_yet_posted():
    # the pool is idle but the shard's drain is scheduled and not yet
    # posted: a claim succeeds, and the scheduled drain must still send
    # the get to the queue behind the insert
    group, tree, server = make()
    real_post = server.pool.post
    held = []

    def post_later(shard, fn):
        held.append((shard, fn))
    server.pool.post = post_later
    with server:
        s = server.session()
        k = key_on_shard(tree, 1)
        s.submit("insert", k, tid_for(k))
        assert len(held) == 1           # scheduled, nothing in the pool
        server.pool.post = real_post
        timer = threading.Timer(0.05, lambda: real_post(*held[0]))
        timer.start()
        assert s.get(k) == tid_for(k)
        timer.join()


def test_close_racing_synchronous_calls_strands_no_caller():
    group, tree, server = make()
    outcomes = []
    started = threading.Barrier(5)

    def client(cid):
        session = server.session()
        started.wait(10)
        try:
            for i in range(100_000):
                key = 4 * i + cid
                session.insert(key, tid_for(key))
                session.get(key)
        except ServerClosed:
            outcomes.append("closed")
        else:
            outcomes.append("finished")

    threads = [threading.Thread(target=client, args=(cid,))
               for cid in range(4)]
    for t in threads:
        t.start()
    started.wait(10)
    server.close()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive(), "a caller hung across close()"
    assert outcomes == ["closed"] * 4
    assert all(not t.is_alive() for t in server.pool._threads)


def test_claims_are_refused_while_the_shard_has_queued_work():
    group, tree, server = make()
    with server:
        pool = server.pool
        gate = threading.Event()
        pool.submit(0, lambda: gate.wait(10))
        try:
            assert not pool.claim(0)
            assert pool.claim(1)
            assert not pool.claim(1)    # one claim at a time
            pool.release(1)
        finally:
            gate.set()
    assert not pool.claim(0)            # closed


def test_the_owner_waits_out_a_claim():
    group, tree, server = make()
    with server:
        pool = server.pool
        assert pool.claim(0)
        ran = threading.Event()
        done, _ = pool.submit(0, ran.set)
        assert not done.wait(0.1) and not ran.is_set()
        pool.release(0)
        assert done.wait(10) and ran.is_set()


@pytest.mark.parametrize("op", ["lookup", "insert", "delete", "update"])
def test_call_on_an_idle_shard_returns_its_request_resolved(op):
    group, tree, server = make()
    with server:
        k = key_on_shard(tree, 0)
        if op in ("lookup", "delete", "update"):
            server.call("insert", k, tid_for(k))
        request = server.call(op, k, tid_for(k + 1))
        assert request.future.done() and request.future.error() is None
