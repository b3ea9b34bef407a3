"""Background heal queue: serve traffic now, repair in the background.

The stop-the-world orchestrator pass drives every first-use repair
*before* a recovered shard serves its first request — exactly the restart
stall the paper's lazy-repair design exists to avoid.  Instant restart
splits the two concerns:

* **admission** (:class:`~repro.shard.recovery.RecoveryOrchestrator`
  with ``admit_immediately=True``) reopens a crashed shard cold — control
  page plus meta page, O(1) in index size — and puts it straight back in
  service.  Every page a foreground operation touches is made safe by the
  first-use checks, so serving early is *correct*, merely unverified.
* **healing** (this module) drives the same separator-key/descent sweep
  the stop-the-world pass ran, but asynchronously: each admitted shard
  carries a resumable :class:`~repro.core.btree_base.RepairSweep` whose
  units are stepped between foreground operations (by the one thread
  running on the shard, preserving the one-thread-per-shard discipline) and
  prioritized by access frequency — under zipfian traffic the hot
  subtrees heal first, shrinking the unverified window fastest where
  queries actually land.

When a shard's sweep reaches its fixpoint the queue validates the tree
(post-crash relaxations), syncs the repairs durable, records the shard's
time-to-full-heal, and emits a ``heal_progress`` trace event.  A shard
that crashes *again* mid-heal is isolated: its pending units are
discarded (the engine is dead; a later orchestrator pass re-seeds), the
crash propagates to the owning thread, and every sibling keeps healing.
"""

from __future__ import annotations

import threading
from time import perf_counter

from ..errors import CrashError, ReproError
from ..obs import get_registry, get_trace

#: Emit a heal_progress checkpoint event every this many units per shard.
PROGRESS_EVERY = 16


class _ShardHeal:
    """Heal state for one admitted shard (owner-thread mutated)."""

    __slots__ = ("index", "tree", "sweep", "admitted_at", "done", "failed",
                 "error", "units_done", "full_heal_seconds", "repairs",
                 "verify_seconds")

    def __init__(self, index: int, tree, admitted_at: float):
        self.index = index
        self.tree = tree
        self.sweep = tree.repair_sweep()
        self.admitted_at = admitted_at
        self.done = False
        self.failed = False
        self.error: str | None = None
        self.units_done = 0
        self.full_heal_seconds: float | None = None
        self.repairs = 0
        self.verify_seconds: float | None = None


class HealQueue:
    """Per-shard background repair queues over one recovering group.

    Built by the orchestrator's admit pass; holds the *same*
    :class:`~repro.shard.engine.ShardedTree` handles foreground traffic
    uses (``queue.tree``), so the repair log the heal drives is the one
    the serving path observes.  Per-shard sweep state is mutated only
    under that shard's entry lock; :meth:`step` must additionally be
    called from the shard's owning thread (it touches the tree).
    """

    def __init__(self, group, tree, shard_indexes, *,
                 admitted_at: float | None = None):
        self.group = group
        self.tree = tree
        started = perf_counter() if admitted_at is None else admitted_at
        self._shards: dict[int, _ShardHeal] = {
            index: _ShardHeal(index, tree.trees[index], started)
            for index in shard_indexes
        }
        self._locks = {index: threading.Lock() for index in shard_indexes}
        reg = get_registry()
        self._m_units = reg.counter("shard.heal.units")
        self._m_repairs = reg.counter("shard.heal.repairs")
        self._m_healed = reg.counter("shard.heal.completed")
        self._m_failed = reg.counter("shard.heal.failed")
        self._h_ttfh = reg.histogram("shard.heal.full_heal_seconds")
        tree.attach_heal(self)

    # -- introspection -------------------------------------------------

    # Every _ShardHeal field the owner thread mutates is read here from
    # whatever thread polls the queue, so each probe snapshots the
    # shard's state under its entry lock — the same lock the heal drive
    # holds while mutating it.

    def _status(self, index: int) -> tuple[bool, bool, float | None]:
        """(done, failed, full_heal_seconds) snapshot for one shard."""
        state = self._shards[index]
        with self._locks[index]:
            return state.done, state.failed, state.full_heal_seconds

    @property
    def shard_indexes(self) -> list[int]:
        return sorted(self._shards)

    @property
    def done(self) -> bool:
        """True once every admitted shard healed fully or failed."""
        return all(done or failed
                   for done, failed, _ in map(self._status, self._shards))

    @property
    def healed(self) -> bool:
        """True once every admitted shard healed fully (none failed)."""
        return all(done for done, _, _ in map(self._status, self._shards))

    def failed_shards(self) -> list[int]:
        return sorted(i for i in self._shards if self._status(i)[1])

    def healing(self, shard_index: int) -> bool:
        """True while *shard_index* was admitted here and has neither
        healed nor failed.  Both are terminal, so once this reads False
        it stays False: a caller may check it once and skip the
        priority feed and the heal step from then on."""
        return shard_index in self._shards and \
            not any(self._status(shard_index)[:2])

    def pending_shards(self) -> list[int]:
        return sorted(filter(self.healing, self._shards))

    def time_to_full_heal(self) -> float | None:
        """Max per-shard heal latency, once every shard healed."""
        if not self._shards:
            return None
        latencies = [self._status(i)[2] for i in self._shards]
        if any(latency is None for latency in latencies):
            return None   # not fully healed (or some shard failed)
        return max(latencies)

    def progress(self) -> dict:
        """JSON-friendly snapshot of every shard's heal state."""
        out = {}
        for index, s in sorted(self._shards.items()):
            with self._locks[index]:
                out[index] = {
                    "done": s.done, "failed": s.failed, "error": s.error,
                    "units_done": s.units_done,
                    "pending_units": s.sweep.pending(),
                    "repairs": s.repairs,
                    "full_heal_seconds": s.full_heal_seconds,
                    "verify_seconds": s.verify_seconds,
                }
        return out

    # -- priority feed (any thread) ------------------------------------

    def note_access(self, shard_index: int, encoded_key: bytes) -> None:
        """Record a foreground access routed to *shard_index*; the heal
        unit covering *encoded_key* is promoted.  No-op for shards that
        are not healing."""
        state = self._shards.get(shard_index)
        if state is None:
            return
        with self._locks[shard_index]:
            # the done/failed probe belongs inside the lock: checked
            # outside, a shard completing concurrently could take a
            # promotion into a sweep that already hit its fixpoint
            if state.done or state.failed:
                return
            state.sweep.promote(encoded_key)

    # -- the heal drive (owner thread of shard_index only) -------------

    def step(self, shard_index: int, max_units: int = 1) -> int:
        """Run up to *max_units* heal units on *shard_index*; returns
        the units run (0 when the shard is not healing here).

        Must be called from the one thread running on the shard (its
        owner thread, or a caller holding its claim) — heal units
        descend the shard's tree.  A :class:`CrashError` marks the shard
        failed (pending units discarded; a later orchestrator pass
        re-seeds from durable state) and propagates, matching the
        pressure-sync contract: the owner must learn its shard died.
        """
        state = self._shards.get(shard_index)
        if state is None:
            return 0
        lock = self._locks[shard_index]
        did = 0
        finished = False
        try:
            while did < max_units:
                with lock:
                    if state.done or state.failed:
                        return did
                    if state.sweep.done:
                        finished = True
                        break
                    ran = state.sweep.step(max_units=1)
                    if not ran:  # pragma: no cover - empty sweep unit
                        break
                    did += ran
                    state.units_done += ran
                    if state.units_done % PROGRESS_EVERY == 0:
                        self._emit(state, done=False)
                self._m_units.inc(ran)
            with lock:
                if not state.done and not state.failed and \
                        state.sweep.done:
                    finished = True
            if finished:
                self._complete(state)
        except CrashError as exc:
            self._fail(state, f"crashed during background heal: {exc}")
            raise
        except ReproError as exc:
            self._fail(state, f"{type(exc).__name__}: {exc}")
            raise
        return did

    def drain(self, shard_index: int | None = None, *,
              chunk: int = 32) -> None:
        """Heal to completion — one shard, or (single-threaded callers
        only) every pending shard."""
        targets = [shard_index] if shard_index is not None \
            else self.pending_shards()
        for index in targets:
            while self.step(index, max_units=chunk):
                pass

    # -- completion / failure ------------------------------------------

    def _complete(self, state: _ShardHeal) -> None:
        # the sweep hit its fixpoint: validate with the post-crash
        # relaxations (stale dual paths may legally survive), then make
        # the repairs durable — the same epilogue the stop-the-world
        # drive ran, just later, and like it O(pages): the count-only
        # validator.  The walk and the sync stay outside the entry lock
        # (both block on simulated I/O; only this shard's owner thread
        # drives them), the field writes go under it so the
        # introspection snapshots never see a half-written completion.
        verify_start = perf_counter()
        state.tree.verify(strict_tokens=False, require_peer_chain=False)
        verify_seconds = perf_counter() - verify_start
        self.group.shard(state.index).sync()
        with self._locks[state.index]:
            state.verify_seconds = verify_seconds
            state.repairs = len(state.tree.repair_log)
            state.full_heal_seconds = perf_counter() - state.admitted_at
            state.done = True
            self._m_healed.inc()
            self._m_repairs.inc(state.repairs)
            self._h_ttfh.observe(state.full_heal_seconds)
            self._emit(state, done=True)

    def _fail(self, state: _ShardHeal, error: str) -> None:
        with self._locks[state.index]:
            state.failed = True
            state.error = error
            self._m_failed.inc()
            self._emit(state, done=False)

    def _emit(self, state: _ShardHeal, *, done: bool) -> None:
        # caller holds the shard's entry lock (every field read here is
        # owner-thread mutated under that lock)
        get_trace().emit(
            "heal_progress", shard=state.index, done=done,
            failed=state.failed, units_done=state.units_done,
            pending=state.sweep.pending(),
            duration=state.full_heal_seconds,
            verify_seconds=state.verify_seconds,
            keys_seen=state.sweep.keys_seen if done else None,
            error=state.error)
