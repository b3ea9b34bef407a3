"""Session semantics through the serving front door.

Every operation here crosses a thread boundary — client thread to shard
owner thread — so these tests are the contract that the dispatch
pipeline preserves single-client semantics: per-key errors land on the
right futures, FIFO order per shard holds, and coalesced batches are
indistinguishable from one-at-a-time execution.
"""

import threading

import pytest

from repro import TID
from repro.errors import (CrashError, DuplicateKeyError, KeyNotFoundError,
                          ReproError)
from repro.obs import scoped_registry
from repro.serve import OpFuture, RequestTimeout, Server
from repro.shard import ShardedEngine
from repro.storage.engine import EngineDeadError

PAGE = 512


def tid_for(i):
    return TID(1 + (i >> 8), i & 0xFF)


def make(n=4, seed=11, **kwargs):
    group = ShardedEngine.create(n, page_size=PAGE, seed=seed)
    tree = group.create_tree("hybrid", "ix", codec="uint32")
    server = Server(tree, **kwargs)
    return group, tree, server


def keys_on_shard(tree, shard, count, start=0):
    out = []
    k = start
    while len(out) < count:
        if tree.shard_of(k) == shard:
            out.append(k)
        k += 1
    return out


def test_basic_ops_round_trip():
    group, tree, server = make()
    with server:
        s = server.session()
        s.insert(7, tid_for(7))
        assert s.get(7) == tid_for(7)
        assert s.get(8) is None
        s.delete(7)
        assert s.get(7) is None


def test_update_is_a_server_side_upsert():
    group, tree, server = make()
    with server:
        s = server.session()
        assert s.update(42, tid_for(1)) is False   # inserted fresh
        assert s.get(42) == tid_for(1)
        assert s.update(42, tid_for(2)) is True    # replaced
        assert s.get(42) == tid_for(2)


def test_duplicate_insert_fails_only_its_own_future():
    group, tree, server = make()
    with server:
        s = server.session()
        s.insert(3, tid_for(3))
        with pytest.raises(DuplicateKeyError):
            s.insert(3, tid_for(99))
        # the shard survives the per-request failure
        s.insert(4, tid_for(4))
        assert s.get(3) == tid_for(3)


def test_delete_missing_key_is_typed():
    group, tree, server = make()
    with server:
        s = server.session()
        with pytest.raises(KeyNotFoundError):
            s.delete(12345)


def test_unknown_op_rejected_synchronously():
    group, tree, server = make()
    with server:
        with pytest.raises(ReproError):
            server.submit("frobnicate", 1)


def test_range_merges_shards_in_key_order():
    group, tree, server = make()
    with server:
        s = server.session()
        keys = [97, 3, 512, 44, 260, 9, 1000]
        for k in keys:
            s.insert(k, tid_for(k))
        rows = s.range()
        assert [k for k, _ in rows] == sorted(keys)
        assert dict(rows) == {k: tid_for(k) for k in keys}


def test_commit_returns_window_and_resets_dirty():
    group, tree, server = make()
    with server:
        s = server.session()
        s.insert(1, tid_for(1))
        assert s.dirty_shards() == {tree.shard_of(1)}
        window = s.commit()
        assert window >= 1
        assert s.dirty_shards() == frozenset()
        # a commit with nothing dirty is a no-op, not a barrier
        assert s.commit() == 0
        # after the barrier the shard's frames are clean
        assert group.shard(tree.shard_of(1)).dirty_page_count() == 0


def test_pipelined_writes_coalesce_into_batched_fast_paths():
    # park shard 0's owner so concurrent inserts pile into its buffer,
    # then release: the drain takes them as one chunk and coalesce()
    # must route the run through insert_many (counted per request)
    with scoped_registry() as reg:
        group, tree, server = make()
        with server:
            s = server.session()
            gate = threading.Event()
            done, _ = server.pool.submit(0, lambda: gate.wait(10))
            keys = keys_on_shard(tree, 0, 8)
            requests = [s.submit("insert", k, tid_for(k)) for k in keys]
            gate.set()
            for r in requests:
                assert r.future.result() is None
            assert all(s.get(k) == tid_for(k) for k in keys)
        counters = reg.snapshot()["counters"]
        assert counters.get("serve.coalesced_ops", 0) >= len(keys)


def test_coalesced_run_fails_only_the_duplicate(monkeypatch):
    # a duplicate buried inside a parked batch must fail alone; the
    # rest of the run still applies through the batched path, and the
    # drain finds the duplicate by the insert's own search — no lookup
    from repro.core.btree_base import BLinkTree
    lookups = []
    real_lookup = BLinkTree.lookup

    def counted_lookup(tree, value):
        lookups.append(value)
        return real_lookup(tree, value)
    group, tree, server = make()
    with server:
        s = server.session()
        keys = keys_on_shard(tree, 0, 6)
        s.insert(keys[2], tid_for(keys[2]))   # pre-existing key
        gate = threading.Event()
        server.pool.submit(0, lambda: gate.wait(10))
        requests = [s.submit("insert", k, tid_for(k)) for k in keys]
        monkeypatch.setattr(BLinkTree, "lookup", counted_lookup)
        gate.set()
        for i, r in enumerate(requests):
            if i == 2:
                with pytest.raises(DuplicateKeyError):
                    r.future.result()
            else:
                assert r.future.result() is None
        assert lookups == []
        monkeypatch.undo()
        assert all(s.get(k) == tid_for(k) for k in keys)


def test_coalesced_run_of_one_key_twice_fails_the_later_request():
    # two clients race the same key into one drain: FIFO decides
    group, tree, server = make()
    with server:
        first, second = server.session(), server.session()
        k, other = keys_on_shard(tree, 0, 2)
        gate = threading.Event()
        server.pool.submit(0, lambda: gate.wait(10))
        won = first.submit("insert", k, tid_for(1))
        lost = second.submit("insert", k, tid_for(2))
        rest = second.submit("insert", other, tid_for(3))
        gate.set()
        assert won.future.result() is None and rest.future.result() is None
        with pytest.raises(DuplicateKeyError):
            lost.future.result()
        assert first.get(k) == tid_for(1)
        # and the delete twin: the second delete of one key misses
        gate = threading.Event()
        server.pool.submit(0, lambda: gate.wait(10))
        gone = first.submit("delete", k)
        missed = second.submit("delete", k)
        gate.set()
        assert gone.future.result() is None
        with pytest.raises(KeyNotFoundError):
            missed.future.result()
        assert first.get(k) is None and first.get(other) == tid_for(3)


def test_per_shard_fifo_order_is_preserved():
    # insert-then-delete-then-insert of the same key, pipelined while
    # the owner is parked: the final state proves FIFO execution
    group, tree, server = make()
    with server:
        s = server.session()
        k = keys_on_shard(tree, 0, 1)[0]
        gate = threading.Event()
        server.pool.submit(0, lambda: gate.wait(10))
        s.submit("insert", k, tid_for(1))
        s.submit("delete", k)
        s.submit("insert", k, tid_for(2))
        gate.set()
        s.flush()
        assert s.get(k) == tid_for(2)


def test_concurrent_clients_share_one_server():
    group, tree, server = make()
    n_clients, per_client = 6, 30
    errors = []

    def client(cid):
        try:
            s = server.session()
            base = 1000 * (cid + 1)
            for i in range(per_client):
                s.insert(base + i, tid_for(i))
            s.commit()
            for i in range(per_client):
                assert s.get(base + i) == tid_for(i)
        except Exception as exc:  # lint: disable=R005
            errors.append(exc)

    with server:
        threads = [threading.Thread(target=client, args=(cid,))
                   for cid in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors
        rows = server.range_scan()
        assert len(rows) == n_clients * per_client


def test_crash_inside_a_coalesced_run_resolves_every_future(monkeypatch):
    # the batched call dying must behave as a single op dying does: the
    # run's own requests carry the crash, everything queued behind it
    # in the chunk gets EngineDeadError, and nobody waits out a timeout
    group, tree, server = make()
    with server:
        s = server.session()
        keys = keys_on_shard(tree, 0, 7)

        def crash(pairs):
            raise CrashError("simulated crash inside insert_many")
        monkeypatch.setattr(tree.trees[0], "insert_many", crash)
        gate = threading.Event()
        server.pool.submit(0, lambda: gate.wait(10))
        run = [s.submit("insert", k, tid_for(k)) for k in keys[:4]]
        behind = [s.submit("lookup", keys[0]),
                  s.submit("insert", keys[4], tid_for(4)),
                  s.submit("delete", keys[5]),
                  s.submit("delete", keys[6])]
        gate.set()
        for r in run:
            assert r.future.wait(timeout=5), "run request left hanging"
            assert isinstance(r.future.error(), CrashError)
        for r in behind:
            assert r.future.wait(timeout=5), "later request left hanging"
            assert isinstance(r.future.error(), EngineDeadError)


# ---------------------------------------------------------------------------
# OpFuture: one lock carries the reply across threads
# ---------------------------------------------------------------------------

def test_unresolved_future_times_out_typed():
    future = OpFuture()
    assert not future.done()
    assert future.wait(timeout=0.01) is False
    assert future.wait(timeout=0) is False
    with pytest.raises(RequestTimeout):
        future.result(timeout=0.01)
    assert future.error() is None
    # a timed-out wait leaves the future resolvable and readable
    future.set_result(7)
    assert future.done() and future.wait(timeout=0) is True
    assert future.result(timeout=0) == 7


def test_future_answers_any_number_of_times_in_any_order():
    future = OpFuture()
    future.set_result("tid")
    assert future.result() == "tid"
    assert future.wait() is True
    assert future.result() == "tid"
    assert future.done() and future.error() is None


def test_error_future_reraises_on_every_call():
    future = OpFuture()
    boom = KeyNotFoundError("key 3 not found")
    future.set_error(boom)
    assert future.done() and future.wait() is True
    for _ in range(3):
        with pytest.raises(KeyNotFoundError) as raised:
            future.result()
        assert raised.value is boom
    assert future.error() is boom


def test_done_is_monotone_under_concurrent_waiters():
    # eight waiters hammer wait()/done() across the resolution: each
    # holds the lock for an instant on its way through, and done() must
    # never be seen to go back to False once any thread saw True
    for _ in range(20):
        future = OpFuture()
        n = 8
        ready = threading.Barrier(n + 1)
        flickers, results = [], []

        def waiter():
            ready.wait(timeout=10)
            seen_done = False
            for _ in range(200):
                now = future.done()
                if seen_done and not now:
                    flickers.append("done() went back to False")
                seen_done = seen_done or now
                if future.wait(timeout=0.001) and not future.done():
                    flickers.append("wait() True but done() False")
            results.append(future.result(timeout=5))

        threads = [threading.Thread(target=waiter) for _ in range(n)]
        for t in threads:
            t.start()
        ready.wait(timeout=10)
        future.set_result(42)
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert not flickers, flickers[:3]
        assert results == [42] * n
