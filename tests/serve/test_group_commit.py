"""Group-commit stage: window occupancy, ack/fail routing, lifecycle.

The deterministic tests drive :class:`GroupCommitStage` with
``autostart=False`` + :meth:`drain_once`, so exactly one barrier covers
exactly the commits the test staged — no timing dependence.  The
threaded test checks the live committer end-to-end through the server.

The closing-rule tests run the live committer with a ``window_delay``
(5 s) far above anything they wait for, so "closed by the rule" and
"closed by the timer" cannot be confused: a commit that acks within
``PROMPT`` seconds did not wait for the timer.
"""

import threading
from time import monotonic, sleep

import pytest

from repro import TID
from repro.obs import scoped_registry
from repro.serve import (CommitFailed, GroupCommitStage, RequestTimeout,
                         ServeError, Server, ServerClosed)
from repro.serve.commit import CLOSE_REASONS
from repro.serve.request import CommitRequest
from repro.shard import GroupSyncScheduler, ShardedEngine, ShardWorkerPool
from repro.storage import CrashOnNthSync

PAGE = 512


def tid_for(i):
    return TID(1 + (i >> 8), i & 0xFF)


def make(n=4, seed=17):
    group = ShardedEngine.create(n, page_size=PAGE, seed=seed)
    tree = group.create_tree("hybrid", "ix", codec="uint32")
    scheduler = GroupSyncScheduler(group)
    pool = ShardWorkerPool(tree, scheduler=scheduler)
    return group, tree, scheduler, pool


def dirty_shard(pool, shard, lo, tree):
    """Insert a handful of keys routed to *shard* via its owner."""
    keys = []
    k = lo
    while len(keys) < 4:
        if tree.shard_of(k) == shard:
            keys.append(k)
        k += 1
    pool.run_batch([("insert", k, tid_for(k)) for k in keys])


def test_one_barrier_acks_every_pending_commit():
    group, tree, scheduler, pool = make()
    with pool:
        stage = GroupCommitStage(group, scheduler, pool,
                                 autostart=False)
        dirty_shard(pool, 0, 100, tree)
        dirty_shard(pool, 1, 100, tree)
        commits = [CommitRequest(shards=frozenset({0})),
                   CommitRequest(shards=frozenset({1})),
                   CommitRequest(shards=frozenset({0, 1}))]
        for c in commits:
            stage.submit(c)
        assert stage.drain_once() == 3
        windows = {c.future.result(5) for c in commits}
        assert windows == {scheduler.window}
        assert scheduler.commit_windows == 1
        assert scheduler.commits_coalesced == 3
        assert scheduler.amortization == pytest.approx(3.0)


def test_occupancy_is_recorded_in_the_registry():
    with scoped_registry() as reg:
        group, tree, scheduler, pool = make()
        with pool:
            stage = GroupCommitStage(group, scheduler, pool,
                                     autostart=False)
            dirty_shard(pool, 0, 100, tree)
            for _ in range(4):
                stage.submit(CommitRequest(shards=frozenset({0})))
            stage.drain_once()
        snap = reg.snapshot()
        occupancy = snap["histograms"]["shard.group.window_occupancy"]
        assert occupancy["count"] == 1
        assert occupancy["sum"] == 4
        assert snap["counters"]["shard.group.commits_coalesced"] == 4
        assert snap["counters"]["serve.commit.acked"] == 4
        assert snap["counters"]["serve.commit.windows"] == 1


def test_commit_touching_a_crashed_shard_fails_typed():
    # two commits share the window; the barrier sync kills shard 0, so
    # the commit covering it fails with the shard named while the
    # sibling's commit still acks — crash isolation at the ack level
    group, tree, scheduler, pool = make()
    with pool:
        stage = GroupCommitStage(group, scheduler, pool,
                                 autostart=False)
        dirty_shard(pool, 0, 100, tree)
        dirty_shard(pool, 1, 100, tree)
        group.shard(0).crash_policy = CrashOnNthSync(1)
        doomed = CommitRequest(shards=frozenset({0}))
        safe = CommitRequest(shards=frozenset({1}))
        stage.submit(doomed)
        stage.submit(safe)
        stage.drain_once()
        assert safe.future.result(5) == scheduler.window
        error = doomed.future.error()
        assert error is not None and error.shards == [0]
        assert error.window == scheduler.window
        assert not error.retryable
        assert scheduler.crash_windows[0] == scheduler.window


def test_commit_to_an_already_dead_shard_fails_without_a_crash():
    group, tree, scheduler, pool = make()
    with pool:
        stage = GroupCommitStage(group, scheduler, pool,
                                 autostart=False)
        dirty_shard(pool, 0, 100, tree)
        group.shard(0).crash_policy = CrashOnNthSync(1)
        first = CommitRequest(shards=frozenset({0}))
        stage.submit(first)
        stage.drain_once()          # the crash happens here
        assert first.future.error() is not None
        retry = CommitRequest(shards=frozenset({0}))
        stage.submit(retry)
        stage.drain_once()          # shard 0 is dead, not re-crashing
        error = retry.future.error()
        assert error is not None and error.shards == [0]


def test_stop_flushes_pending_and_rejects_later_submissions():
    group, tree, scheduler, pool = make()
    with pool:
        stage = GroupCommitStage(group, scheduler, pool,
                                 autostart=False)
        dirty_shard(pool, 0, 100, tree)
        pending = CommitRequest(shards=frozenset({0}))
        stage.submit(pending)
        stage.stop()                # inline flush: no committer ran
        assert pending.future.result(5) >= 1
        with pytest.raises(ServerClosed):
            stage.submit(CommitRequest(shards=frozenset({0})))


def test_threaded_committers_share_windows():
    group = ShardedEngine.create(4, page_size=PAGE, seed=17)
    tree = group.create_tree("hybrid", "ix", codec="uint32")
    server = Server(tree, window_delay=0.01)
    n_clients = 8
    start = threading.Barrier(n_clients)
    errors = []

    def client(cid):
        try:
            s = server.session()
            base = 500 * (cid + 1)
            s.insert(base, tid_for(cid))
            s.insert(base + 1, tid_for(cid))
            start.wait(timeout=10)       # commit storm, all at once
            assert s.commit() >= 1
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
        scheduler = server.scheduler
        assert scheduler.commits_coalesced == n_clients
        # the aggregation window must have folded the storm into fewer
        # barriers than commits (usually just one or two)
        assert scheduler.commit_windows < n_clients
        assert scheduler.amortization > 1.0


# ---------------------------------------------------------------------------
# the closing rule: a commit waits for its siblings, not for a timer
# ---------------------------------------------------------------------------

LONG_DELAY = 5.0    # a window_delay no prompt commit can have waited out
PROMPT = 2.0        # "well under LONG_DELAY", generous for a busy machine


def served(**kwargs):
    group = ShardedEngine.create(4, page_size=PAGE, seed=17)
    tree = group.create_tree("hybrid", "ix", codec="uint32")
    return Server(tree, **kwargs)


def wait_until(predicate, timeout=PROMPT):
    deadline = monotonic() + timeout
    while not predicate():
        assert monotonic() < deadline, "condition not reached in time"
        sleep(0.001)


def closed_by(reg):
    """The closed_by counters — read them after the server closed: the
    committer counts a window after it acked the window's commits."""
    counters = reg.snapshot()["counters"]
    reasons = {reason: counters.get(
        f"serve.commit.closed_by[reason={reason}]", 0)
        for reason in CLOSE_REASONS}
    # every counted window has exactly one reason
    assert sum(reasons.values()) == counters.get("serve.commit.windows", 0)
    return reasons


def committing(session, acks):
    """A thread target: commit, and record the ack (or the error)."""
    def run():
        try:
            acks.append(session.commit())
        except ServeError as exc:
            acks.append(exc)
    return run


class ScriptedScheduler(GroupSyncScheduler):
    """Runs real barriers, then plays one scripted outcome per barrier:
    an exception to raise, or extra shards to report crashed."""

    def __init__(self, group, script):
        super().__init__(group)
        self.script = list(script)

    def sync_group_parallel(self, pool, commits=0):
        crashed = super().sync_group_parallel(pool, commits)
        step = self.script.pop(0) if self.script else []
        if isinstance(step, Exception):
            raise step
        return crashed + step


def test_lone_writer_commits_without_waiting_for_the_timer():
    with scoped_registry() as reg:
        with served(window_delay=LONG_DELAY) as server:
            s = server.session()
            s.insert(1, tid_for(1))
            assert server.commit_stage.open_writers() == 1
            started = monotonic()
            assert s.commit() >= 1
            assert monotonic() - started < PROMPT
            assert server.commit_stage.open_writers() == 0
        assert closed_by(reg)["siblings"] == 1


def test_window_waits_for_the_last_sibling_then_closes_once():
    n = 4
    with scoped_registry() as reg:
        with served(window_delay=LONG_DELAY) as server:
            stage, scheduler = server.commit_stage, server.scheduler
            sessions = [server.session() for _ in range(n)]
            for i, s in enumerate(sessions):
                s.insert(100 * i, tid_for(i))
                s.insert(100 * i + 1, tid_for(i))   # one open per cycle
            assert stage.open_writers() == n
            acks = []
            threads = [threading.Thread(target=committing(s, acks))
                       for s in sessions]
            for arrived, t in enumerate(threads, start=1):
                # everyone before the last is held: no barrier, no ack
                assert scheduler.commit_windows == 0 and not acks
                t.start()
                if arrived < n:
                    wait_until(lambda: stage.pending_count() == arrived)
                    assert stage.open_writers() == n - arrived
            for t in threads:
                t.join(timeout=PROMPT)
                assert not t.is_alive()
            assert acks == [scheduler.window] * n
            assert scheduler.commit_windows == 1
            assert scheduler.commits_coalesced == n
            assert stage.open_writers() == 0
        assert closed_by(reg) == {"siblings": 1, "timer": 0,
                                  "full": 0, "stop": 0}


def test_reader_only_sibling_does_not_hold_the_window():
    with served(window_delay=LONG_DELAY) as server:
        reader, writer = server.session(), server.session()
        writer.insert(5, tid_for(5))
        assert reader.get(5) == tid_for(5)
        assert reader.get(6) is None
        assert server.commit_stage.open_writers() == 1   # the writer
        started = monotonic()
        assert writer.commit() >= 1
        assert monotonic() - started < PROMPT
        # a reader's commit is still a no-op, not a barrier
        assert reader.commit() == 0
        assert server.scheduler.commit_windows == 1


def test_sibling_that_never_commits_costs_the_delay_and_no_more():
    delay = 0.05
    with scoped_registry() as reg:
        with served(window_delay=delay) as server:
            idler, s = server.session(), server.session()
            idler.insert(7, tid_for(7))       # writes, never commits
            s.insert(8, tid_for(8))
            started = monotonic()
            assert s.commit() >= 1
            assert delay * 0.9 <= monotonic() - started < PROMPT
            # the idler is still open: the next commit would pay the
            # bound again, and no more than the bound
            assert server.commit_stage.open_writers() == 1
        assert closed_by(reg)["timer"] == 1
        wait = reg.snapshot()["histograms"][
            "serve.commit.window_wait_seconds"]
        assert wait["count"] == 1 and wait["max"] >= delay * 0.9


def test_failed_commit_retries_as_a_plain_pending_commit():
    # barrier 1 reports shard 0 lost, barrier 2 is clean: the session
    # stops being an open writer at its first attempt, so the retry
    # must not take the count below zero (nor wait for anyone)
    group, tree, _, pool = make()
    scheduler = ScriptedScheduler(group, [[0]])
    with Server(tree, scheduler=scheduler, pool=pool,
                window_delay=LONG_DELAY) as server:
        stage = server.commit_stage
        s = server.session()
        k = next(k for k in range(100) if tree.shard_of(k) == 0)
        s.insert(k, tid_for(k))
        with pytest.raises(CommitFailed) as failed:
            s.commit()
        assert failed.value.shards == [0]
        assert s.dirty_shards() == {0}        # kept for the retry
        assert stage.open_writers() == 0
        started = monotonic()
        assert s.commit() >= 2
        assert monotonic() - started < PROMPT
        assert stage.open_writers() == 0
        assert s.dirty_shards() == frozenset()
        # and the cycle starts over cleanly at the next write
        s.insert(k + 1000, tid_for(k))
        assert stage.open_writers() == 1
        assert s.commit() >= 3
        assert stage.open_writers() == 0


def test_close_with_an_open_writer_flushes_the_pending_commit():
    with scoped_registry() as reg:
        server = served(window_delay=LONG_DELAY)
        idler, s = server.session(), server.session()
        idler.insert(1, tid_for(1))           # holds the window open
        s.insert(2, tid_for(2))
        acks = []
        thread = threading.Thread(target=committing(s, acks))
        thread.start()
        wait_until(lambda: server.commit_stage.pending_count() == 1)
        assert not acks
        started = monotonic()
        server.close()
        assert monotonic() - started < PROMPT
        thread.join(timeout=PROMPT)
        assert not thread.is_alive()
        assert acks == [server.scheduler.window] and acks[0] >= 1
        assert closed_by(reg)["stop"] == 1


def test_full_window_closes_despite_an_open_writer():
    with scoped_registry() as reg:
        group, tree, scheduler, pool = make()
        with pool:
            stage = GroupCommitStage(group, scheduler, pool, max_window=2,
                                     window_delay=LONG_DELAY)
            stage.writer_opened()             # never commits
            commits = [CommitRequest(shards=frozenset({0}))
                       for _ in range(2)]
            for c in commits:
                stage.submit(c)
            assert {c.future.result(PROMPT) for c in commits} == {1}
            stage.stop()
        assert closed_by(reg)["full"] == 1


def test_direct_submissions_and_drain_once_ignore_the_writer_count():
    # the autostart=False seam is what it was: drain_once never waits,
    # and a commit submitted directly is nobody's open writer
    with scoped_registry() as reg:
        group, tree, scheduler, pool = make()
        with pool:
            stage = GroupCommitStage(group, scheduler, pool,
                                     autostart=False,
                                     window_delay=LONG_DELAY)
            stage.writer_opened()
            commits = [CommitRequest(shards=frozenset({0}))
                       for _ in range(3)]
            for c in commits:
                stage.submit(c)
            assert stage.open_writers() == 1
            started = monotonic()
            assert stage.drain_once() == 3
            assert monotonic() - started < PROMPT
            assert all(c.future.done() for c in commits)
            assert stage.open_writers() == 1
            assert stage.drain_once() == 0
        assert closed_by(reg) == {"siblings": 0, "timer": 0,
                                  "full": 0, "stop": 1}


def test_committer_survives_an_unexpected_barrier_error():
    # anything but ServeError/ReproError used to kill the daemon
    # committer silently; every later commit then waited out 60 s
    group, tree, _, pool = make()
    scheduler = ScriptedScheduler(group, [RuntimeError("disk on fire")])
    with scoped_registry() as reg:
        with Server(tree, scheduler=scheduler, pool=pool) as server:
            s = server.session()
            s.insert(1, tid_for(1))
            started = monotonic()
            with pytest.raises(ServeError) as failed:
                s.commit()
            assert monotonic() - started < 1.0
            assert not isinstance(failed.value,
                                  (RequestTimeout, CommitFailed))
            assert "RuntimeError" in str(failed.value)
            assert "disk on fire" in str(failed.value)
            # the writes are not acknowledged, the session can retry,
            # and the committer is still there to serve it
            assert s.dirty_shards()
            assert s.commit() >= 2
        counters = reg.snapshot()["counters"]
        assert counters["serve.commit.failed"] == 1
        assert counters["serve.commit.acked"] == 1
        assert closed_by(reg)["siblings"] == 1     # the failed one: none


def commit_together(sessions):
    """Commit every session from its own thread; returns the acks."""
    acks = []
    threads = [threading.Thread(target=committing(s, acks))
               for s in sessions]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=PROMPT)
        assert not t.is_alive()
    return acks


def test_sessions_acked_together_share_the_next_window_too():
    # a synchronous call on an idle shard runs on the client's thread,
    # so one client can write and commit before its sibling writes
    # again; the window waits for the sibling the last window acked
    with scoped_registry() as reg:
        with served(window_delay=LONG_DELAY) as server:
            stage, scheduler = server.commit_stage, server.scheduler
            a, b = server.session(), server.session()
            a.insert(1, tid_for(1))
            b.insert(2, tid_for(2))
            first = commit_together([a, b])
            assert first == [first[0]] * 2
            a.insert(3, tid_for(3))          # b has not written yet
            acks = []
            thread = threading.Thread(target=committing(a, acks))
            thread.start()
            wait_until(lambda: stage.pending_count() == 1)
            sleep(0.05)
            assert not acks and scheduler.commit_windows == 1
            b.insert(4, tid_for(4))
            assert stage.open_writers() == 1    # b: acked -> open
            acks.append(b.commit())
            thread.join(timeout=PROMPT)
            assert not thread.is_alive()
            assert acks == [first[0] + 1] * 2
            assert scheduler.commit_windows == 2
        assert closed_by(reg)["siblings"] == 2


def test_a_session_gone_idle_after_its_ack_costs_one_delay_once():
    delay = 0.5
    with scoped_registry() as reg:
        with served(window_delay=delay) as server:
            a, idler = server.session(), server.session()
            a.insert(1, tid_for(1))
            idler.insert(2, tid_for(2))
            commit_together([a, idler])     # idler never writes again
            a.insert(3, tid_for(3))
            started = monotonic()
            assert a.commit() >= 2
            assert delay * 0.9 <= monotonic() - started < PROMPT
            for key in (4, 5):              # and never again after that
                a.insert(key, tid_for(key))
                started = monotonic()
                assert a.commit() >= 3
                assert monotonic() - started < delay / 2
        assert closed_by(reg) == {"siblings": 3, "timer": 1,
                                  "full": 0, "stop": 0}
