"""Cross-client group commit: one barrier acknowledges many commits.

The naive serving discipline syncs every client's dirty shards at every
commit — N clients commit, N engine syncs run, each re-writing whatever
hot pages went dirty since the last one.  But commit *ordering* between
independent clients is unconstrained, so their durability points can
share one barrier: this stage collects pending commits, closes a single
group sync over all of them, and acks every commit the sync proved
durable.  Each hot page is then written once per *window*, not once per
commit — the amortization the serving benchmark measures.

**When the window closes.**  A commit waits for its siblings, not for a
timer (PostgreSQL's ``commit_siblings`` idea).  The stage counts the
*open writers*: sessions that have written since their last
``commit()`` and have no commit pending.  Each of them is a commit that
has not arrived yet and that this barrier could still carry, so the
committer lingers while any is open and fires the moment the last one
arrives — at once for a lone committer, at once when nobody else has
written.  ``window_delay`` is only the upper bound: the longest a commit
waits for a sibling that has written but not yet committed (one that
idles, or was dropped without committing, costs its siblings that long
and no longer).  Turning the timer off instead is not the same thing:
the clients fall out of phase, each barrier carries one commit, and
every sync then stalls the *other* client's operations queued behind it
on the owner thread (DESIGN §5k has the numbers).

Ownership discipline: shard engines may only be touched by their owner
threads, so the barrier never syncs an engine itself — it goes through
:meth:`~repro.shard.scheduler.GroupSyncScheduler.sync_group_parallel`,
which submits each shard's sync to that shard's own owner thread.  Two
properties fall out for free: the per-shard syncs overlap (the barrier
costs one slowest-shard sync, not the sum), and FIFO submission means
every operation a client completed before committing is applied before
its shard syncs, so the ack really covers the client's writes.

A commit is acknowledged only if **none** of the shards it wrote to
crashed inside (or were already dead at) its covering window; anything
else fails with a typed :class:`~repro.serve.errors.CommitFailed` and
the client knows its writes are not durable.
"""

from __future__ import annotations

import threading
from time import monotonic, perf_counter

from ..errors import ReproError
from ..obs import get_registry, get_trace
from .errors import CommitFailed, ServeError, ServerClosed
from .request import DEFAULT_WAIT_SECONDS, CommitRequest

#: Upper bound on commits folded into one barrier (keeps a single
#: window's ack latency bounded under a commit storm).
DEFAULT_MAX_WINDOW = 256

#: The longest a pending commit waits for a sibling that has written
#: but not yet committed.  An upper bound, not a pace: the window closes
#: as soon as no such sibling is left (see the module docstring), so
#: this is paid only when one writes and then stalls.
DEFAULT_WINDOW_DELAY = 0.002

#: Why a window closed (the ``serve.commit.closed_by`` label): the last
#: open writer arrived (or there was none), the delay ran out on one
#: that had not, the window filled, or the stage was stopping / flushed
#: inline with no committer to wait.
CLOSE_REASONS = ("siblings", "timer", "full", "stop")


class GroupCommitStage:
    """Batches concurrent clients' commits under shared sync barriers."""

    def __init__(self, group, scheduler, pool, *,
                 max_window: int = DEFAULT_MAX_WINDOW,
                 window_delay: float = DEFAULT_WINDOW_DELAY,
                 autostart: bool = True):
        self.group = group
        self.scheduler = scheduler
        self.pool = pool
        self.max_window = max_window
        #: upper bound on the wait for an open writer (see module doc)
        self.window_delay = window_delay
        self._cv = threading.Condition()
        self._pending: list[CommitRequest] = []
        #: sessions that wrote since their last commit() and have no
        #: commit pending — the siblings a pending commit waits for
        self._open_writers = 0
        self._stopping = False
        self._thread: threading.Thread | None = None
        reg = get_registry()
        self._m_windows = reg.counter("serve.commit.windows")
        self._m_acked = reg.counter("serve.commit.acked")
        self._m_failed = reg.counter("serve.commit.failed")
        self._m_closed_by = {
            reason: reg.counter("serve.commit.closed_by", reason=reason)
            for reason in CLOSE_REASONS}
        self._h_window_wait = reg.histogram(
            "serve.commit.window_wait_seconds")
        if autostart:
            self.start()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        with self._cv:
            if self._thread is not None or self._stopping:
                return
            self._thread = threading.Thread(
                target=self._loop, name="group-committer", daemon=True)
            self._thread.start()

    def stop(self) -> None:
        """Flush every already-pending commit through one final barrier,
        then stop accepting and join the committer.  Idempotent."""
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=DEFAULT_WAIT_SECONDS)
        # started with autostart=False and never run: drain inline so
        # pending commits still resolve instead of hanging their waiters
        if thread is None:
            self.drain_once()

    # -- submission (any client thread) ----------------------------------

    def writer_opened(self) -> None:
        """A session made its first write since its last ``commit()``:
        until that session commits (``submit(..., closes_writer=True)``)
        pending commits wait for it, up to ``window_delay``.  Called
        once per commit cycle, not per write."""
        with self._cv:
            self._open_writers += 1

    def submit(self, commit: CommitRequest, *,
               closes_writer: bool = False) -> None:
        """Queue *commit* for the next barrier.  *closes_writer* marks
        the commit of a session that reported :meth:`writer_opened`: it
        moves from open to pending in this one critical section, so the
        committer never sees it as neither."""
        with self._cv:
            if self._stopping:
                raise ServerClosed("server is closing; commit rejected")
            if closes_writer:
                self._open_writers -= 1
            self._pending.append(commit)
            self._cv.notify()

    def pending_count(self) -> int:
        with self._cv:
            return len(self._pending)

    def open_writers(self) -> int:
        with self._cv:
            return self._open_writers

    # -- the committer ---------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._cv:
                while not self._pending and not self._stopping:
                    self._cv.wait()
                if not self._pending:
                    return
                # the window is open: wait for the siblings that could
                # still join it, never past the deadline
                deadline = monotonic() + self.window_delay
                while True:
                    if self._stopping:
                        reason = "stop"
                    elif len(self._pending) >= self.max_window:
                        reason = "full"
                    elif self._open_writers <= 0:
                        reason = "siblings"
                    else:
                        remaining = deadline - monotonic()
                        if remaining > 0:
                            self._cv.wait(timeout=remaining)
                            continue
                        reason = "timer"
                    break
                batch = self._pending[:self.max_window]
                del self._pending[:len(batch)]
            try:
                self._barrier(batch, reason)
            except Exception as exc:  # lint: disable=R005
                # thread boundary: were the committer to die here,
                # submit() would keep accepting and every later commit
                # would wait out its full timeout.  Whatever the barrier
                # left unresolved is not proven durable — fail it typed,
                # naming the cause, and keep serving the next window.
                self._fail_batch(
                    [c for c in batch if not c.future.done()],
                    ServeError(f"commit barrier failed: "
                               f"{type(exc).__name__}: {exc}"))

    def drain_once(self) -> int:
        """Run one barrier over everything currently pending (test and
        inline-flush seam; the committer thread must not be running).
        Returns the number of commits covered."""
        with self._cv:
            batch = self._pending[:self.max_window]
            del self._pending[:len(batch)]
        if batch:
            self._barrier(batch, "stop")
        return len(batch)

    def _barrier(self, batch: list[CommitRequest], reason: str) -> None:
        """Close one group sync window over *batch*, then ack or fail
        each commit against what the window proved durable."""
        self._h_window_wait.observe(
            max(0.0, perf_counter() - batch[0].submitted_at))
        try:
            crashed = set(self.scheduler.sync_group_parallel(
                self.pool, commits=len(batch)))
        except ServeError as exc:  # pragma: no cover - defensive
            self._fail_batch(batch, exc)
            return
        except ReproError as exc:   # pool closed underneath us
            self._fail_batch(batch, ServerClosed(
                f"worker pool closed during commit barrier: {exc}"))
            return
        window = self.scheduler.window
        dead = {i for i, shard in enumerate(self.group.shards)
                if shard.dead}
        acked = 0
        for commit in batch:
            bad = sorted(set(commit.shards) & (crashed | dead))
            if bad:
                self._m_failed.inc()
                commit.future.set_error(CommitFailed(bad, window))
            else:
                acked += 1
                commit.future.set_result(window)
        self._m_windows.inc()
        self._m_closed_by[reason].inc()
        self._m_acked.inc(acked)
        get_trace().emit("serve_commit", window=window,
                         commits=len(batch), acked=acked,
                         crashed=sorted(crashed | dead))

    def _fail_batch(self, batch: list[CommitRequest],
                    error: ServeError) -> None:
        for commit in batch:
            self._m_failed.inc()
            commit.future.set_error(error)
