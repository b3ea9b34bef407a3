"""Group-sync scheduling: when does each shard of a group sync?

A single engine syncs when its caller commits.  A group of N engines
must not — N lock-step syncs per commit would serialize the group on its
slowest shard and multiply the crash windows.  The scheduler implements
the two triggers the group actually needs:

* **dirty-frame pressure** (:meth:`GroupSyncScheduler.note_op`): after
  every operation the thread running on the shard polls its dirty-frame
  count; crossing the threshold syncs *that shard only*.  Pressure syncs
  are independent per shard — one shard splitting like mad syncs often,
  an idle sibling not at all.
* **group barrier** (:meth:`GroupSyncScheduler.sync_group`): a commit
  point for the logical index.  Every live shard with dirty frames syncs;
  shards that crash doing so are recorded and *skipped*, never allowed to
  abort their siblings' syncs.  One barrier = one **group sync window**:
  the window ordinal is the group-level analogue of the paper's sync
  counter, and the crash-window bookkeeping (which shards crashed inside
  which window) is what the recovery tests sweep over.
  :meth:`~GroupSyncScheduler.sync_group_parallel` closes the same window
  with the same per-shard body, run on each shard's owner thread.

Each shard's own :class:`~repro.storage.sync.SyncState` stays the sole
authority on its tokens — the scheduler never touches counters, it only
decides *when* ``engine.sync()`` runs.
"""

from __future__ import annotations

import threading
from functools import partial

from ..errors import CrashError
from ..obs import COUNT_BUCKETS, get_registry, get_trace
from .engine import ShardedEngine

#: Default dirty-frame count at which a shard is synced by pressure.
DEFAULT_DIRTY_THRESHOLD = 48


class GroupSyncScheduler:
    """Pressure- and barrier-triggered sync driver for a shard group."""

    def __init__(self, group: ShardedEngine, *,
                 dirty_threshold: int = DEFAULT_DIRTY_THRESHOLD):
        self.group = group
        self.dirty_threshold = dirty_threshold
        #: barrier ordinal: how many group sync windows have closed
        self.window = 0
        #: shard index -> window ordinal it last crashed in
        self.crash_windows: dict[int, int] = {}
        #: group-commit bookkeeping: total client commits acknowledged
        #: through barriers, and how many barriers carried commits — the
        #: ratio is the amortization factor the serving layer buys
        self.commits_coalesced = 0
        self.commit_windows = 0
        self._lock = threading.Lock()
        reg = get_registry()
        self._m_pressure = reg.counter("shard.sync.triggered",
                                       reason="pressure")
        self._m_barrier = reg.counter("shard.sync.triggered",
                                      reason="barrier")
        self._m_windows = reg.counter("shard.group.windows")
        self._m_crashes = reg.counter("shard.group.crashes_in_window")
        self._h_dirty = reg.histogram("shard.sync.dirty_frames",
                                      bounds=COUNT_BUCKETS)
        # group-commit amortization: commits carried per barrier window
        # (the serving summary of ``python -m repro.tools.stats``)
        self._m_commits = reg.counter("shard.group.commits_coalesced")
        self._h_occupancy = reg.histogram("shard.group.window_occupancy",
                                          bounds=COUNT_BUCKETS)

    # -- pressure path (called by the thread running on the shard) --------

    def note_op(self, shard_index: int) -> bool:
        """Poll one shard's pressure after an operation; sync if over the
        threshold.  Returns True when a sync ran.  Must only be called by
        the one thread running on *shard_index* — its owner thread, or a
        caller holding the shard's claim
        (:meth:`~repro.shard.workers.ShardWorkerPool.claim`).  The whole
        point of one thread at a time per shard is that engine internals
        are never shared, so the scheduler takes no lock here.
        """
        engine = self.group.shard(shard_index)
        if engine.dead:
            return False
        dirty = engine.dirty_page_count()
        if dirty < self.dirty_threshold:
            return False
        self._h_dirty.observe(dirty)
        try:
            self.group.sync_shard(shard_index)
        except CrashError:
            # attribute the crash to the window it happened inside — the
            # open interval a barrier would close as window+1 — so
            # crash-window sweeps see pressure-path crashes too, not
            # just barrier ones
            self._m_crashes.inc()
            with self._lock:
                self.crash_windows[shard_index] = self.window + 1
            raise               # the running thread must see it died
        self._m_pressure.inc()  # only completed syncs count
        return True

    # -- barrier path ------------------------------------------------------

    def sync_group(self, commits: int = 0) -> list[int]:
        """Close one group sync window: sync every live shard that has
        dirty frames; record and isolate crashes.  Returns the shards
        that crashed inside this window.

        *commits* is the number of client commits this barrier covers
        (the group-commit stage passes its batch size).  The per-window
        occupancy is the amortization factor — many commits riding one
        barrier is the whole point of cross-client group commit — and
        is recorded so the serving stats can report it.
        """
        window = self._open_window(commits)
        outcomes = {index: self._sync_in_window(index, window)
                    for index in self.group.live_shards()}
        return self._close_window(window, outcomes, commits)

    def sync_group_parallel(self, pool, commits: int = 0) -> list[int]:
        """Close one group sync window with each shard synced **on its
        own owner thread** (via *pool*, a
        :class:`~repro.shard.workers.ShardWorkerPool`).

        Semantically identical to :meth:`sync_group` — the same
        per-shard body runs, only on the owner threads — but the
        per-shard syncs overlap: each owner writes its shard's dirty
        pages concurrently with its siblings, so the barrier costs one
        slowest-shard sync instead of the sum.  FIFO submission also
        means every operation admitted to a shard before the barrier is
        applied before the shard syncs — exactly the coverage a group
        commit's acks need.  A shard whose body raises counts as
        crashed.  Raises whatever ``pool.submit`` raises when the pool
        is closed.
        """
        window = self._open_window(commits)
        waits = []
        for index in self.group.live_shards():
            box: dict = {}
            done, errbox = pool.submit(
                index, partial(self._sync_into, box, index, window))
            waits.append((index, box, done, errbox))
        outcomes = {}
        for index, box, done, errbox in waits:
            done.wait()
            outcomes[index] = ("crashed" if errbox.get("error")
                               else box.get("outcome"))
        return self._close_window(window, outcomes, commits)

    def _open_window(self, commits: int) -> int:
        """Bump the window ordinal and book the commits it carries."""
        with self._lock:
            self.window += 1
            window = self.window
            if commits:
                self.commits_coalesced += commits
                self.commit_windows += 1
        self._m_windows.inc()
        if commits:
            self._m_commits.inc(commits)
            self._h_occupancy.observe(commits)
        return window

    def _sync_in_window(self, index: int, window: int) -> str | None:
        """The barrier's per-shard body: sync *index* if it has dirty
        frames or an unsynced split.  Returns ``"synced"``, ``"crashed"``
        (recorded against *window*) or None when skipped."""
        engine = self.group.shard(index)
        if engine.dead:
            return "crashed"
        dirty = engine.dirty_page_count()
        if dirty == 0 and not engine.sync_state.split_since_sync:
            return None
        self._h_dirty.observe(dirty)
        self._m_barrier.inc()
        try:
            self.group.sync_shard(index)
        except CrashError:
            self._m_crashes.inc()
            with self._lock:
                self.crash_windows[index] = window
            return "crashed"
        return "synced"

    def _sync_into(self, box: dict, index: int, window: int) -> None:
        """Owner-thread wrapper: leave the body's outcome in *box*."""
        box["outcome"] = self._sync_in_window(index, window)

    def _close_window(self, window: int, outcomes: dict[int, str | None],
                      commits: int) -> list[int]:
        """Trace the closed window; returns the shards that crashed."""
        synced = [i for i, out in outcomes.items() if out == "synced"]
        crashed = [i for i, out in outcomes.items() if out == "crashed"]
        get_trace().emit("group_sync", window=window, synced=synced,
                         crashed=crashed, commits=commits)
        return crashed

    @property
    def amortization(self) -> float:
        """Mean commits acknowledged per commit-carrying barrier (0.0
        before the first group-commit window closes)."""
        with self._lock:
            if not self.commit_windows:
                return 0.0
            return self.commits_coalesced / self.commit_windows
