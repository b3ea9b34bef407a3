"""Per-shard worker pool: batched operations, one thread at a time per shard.

The concurrency model is deliberately boring: shard *i*'s engine, trees,
buffer pools and freelists are touched by one thread at a time — the
shard's owner thread, or a caller that claimed the shard while it was
idle — so none of the single-engine machinery needs latching and the
latch-protocol invariants hold per shard by construction.  Parallelism
comes from shards being independent, not from threads sharing a tree.

**Who runs on a shard.**  Every queued item (batch share, submitted
callable, posted callable, heal share) runs on the shard's owner
thread, FIFO.  Under the pool's one lock (``_lifecycle``) the pool
counts each shard's queued or running items, and of those the posted
items the owner has not started.  A caller may
:meth:`~ShardWorkerPool.claim` the shard and run on it directly in two
cases — the two halves of flat combining (Hendler et al., SPAA 2010),
each saving the thread hand-offs a queued call pays:

* nothing is queued or running: a synchronous call runs its own
  operation (the uncontended half);
* ``behind_drains=True``: the owner runs nothing and every queued item
  is a posted, not-yet-started drain: a client waiting on a pipelined
  request drains the serving buffer itself (the waiter becomes the
  combiner).  A queued :meth:`~ShardWorkerPool.submit` job, batch or
  heal refuses it, so the waiter never overtakes one; the owner runs
  the posted drain later and finds what is left, or nothing.

The owner waits out a claim before it runs its next item, and no lock is
ever held across tree work or a sync: the lock guards the counts and the
claimed flag only.

:meth:`~ShardWorkerPool.run_batch` and :meth:`~ShardWorkerPool.run_heal`
split their work into one share per shard.  Owner threads running the
shares side by side gain something only when a share can sleep on the
device, the one wait that releases the GIL
(:func:`~repro.shard.engine.waits_on_device`, the predicate recovery's
stages use too).  So when two or more shares run and one of them can,
every share is queued on its owner; otherwise the caller claims each
idle shard and runs its share itself, one shard after another, and
queues only the shares of shards that are busy or claimed, behind
whatever is ahead of them there.  Either way the batch's shares are
claimed or queued in one step under the lock, so a batch lands whole
or, on a closed pool, not at all.

A batch is a list of ``("insert", value, tid)`` / ``("lookup", value)`` /
``("delete", value)`` tuples in client order.  The pool partitions it by
the routed shard of each value (preserving per-shard arrival order, which
is all a hash-partitioned store can promise), runs the partitions
(concurrently when they can overlap a device wait), and reassembles
results into the original order.

Failure semantics mirror the group's: a shard that crashes mid-batch
stops executing *its* remaining operations (each reported as an error)
while sibling shards run their partitions to completion.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from time import perf_counter

from ..errors import CrashError, ReproError
from ..obs import get_registry
from ..storage.engine import EngineDeadError
from .engine import ShardedTree, waits_on_device
from .heal import HealQueue
from .scheduler import GroupSyncScheduler

_OPS = ("insert", "lookup", "delete")


@dataclass
class OpResult:
    """Outcome of one batched operation, built once by the thread that
    ran it."""

    index: int                  # position in the submitted batch
    shard: int
    op: str
    value: object
    result: object = None       # lookup's TID (or None)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchReport:
    """Everything one :meth:`ShardWorkerPool.run_batch` call did."""

    results: list[OpResult]
    crashed_shards: list[int]
    per_shard_ops: list[int]
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.crashed_shards and all(r.ok for r in self.results)

    def errors(self) -> list[OpResult]:
        return [r for r in self.results if not r.ok]


class ShardWorkerPool:
    """N worker threads, each owning one shard of a :class:`ShardedTree`
    (see the module docstring for the claim that lets a caller run on an
    idle shard).

    Use as a context manager (or call :meth:`close`); workers are
    long-lived so consecutive batches reuse warm threads.
    """

    def __init__(self, tree: ShardedTree, *,
                 scheduler: GroupSyncScheduler | None = None,
                 heal=None, heal_units_per_op: int = 1):
        self.tree = tree
        self.scheduler = scheduler
        # instant restart: the background heal queue drained by these
        # same owner threads between foreground ops (defaults to the
        # queue the orchestrator attached to the serving handle)
        self.heal: HealQueue | None = heal if heal is not None \
            else getattr(tree, "heal", None)
        self.heal_units_per_op = heal_units_per_op
        self._n = len(tree.trees)
        # SimpleQueue: unbounded, no task accounting — one C-level
        # put/get per hand-off instead of Queue's three conditions
        self._queues: list[queue.SimpleQueue] = [queue.SimpleQueue()
                                                 for _ in range(self._n)]
        self._threads: list[threading.Thread] = []
        self._closed = False
        #: per shard: items queued or running on the owner thread
        self._busy = [0] * self._n
        #: per shard: of those, posted items the owner has not started
        self._posted = [0] * self._n
        #: per shard: a caller claimed the idle shard and runs on it
        self._claimed = [False] * self._n
        # guards the closed flag and the submission/sentinel ordering:
        # checking `_closed` and enqueueing must be one atomic step, or
        # a submission racing `close` can land behind the shutdown
        # sentinel and strand its caller on an event no worker will set.
        # It also guards `_busy` / `_posted` / `_claimed`; waiting on it
        # is how an owner waits out a claim
        self._lifecycle = threading.Condition()
        for i in range(self._n):
            thread = threading.Thread(target=self._worker_loop, args=(i,),
                                      name=f"shard-worker-{i}", daemon=True)
            thread.start()
            self._threads.append(thread)
        reg = get_registry()
        self._m_batches = reg.counter("shard.worker.batches")
        # batch and heal shares by the thread that ran them
        self._m_here = reg.counter("shard.worker.shares", ran="caller")
        self._m_owner = reg.counter("shard.worker.shares", ran="owner")
        self._m_ops = reg.counter("shard.worker.ops")
        self._m_op_errors = reg.counter("shard.worker.op_errors")

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            # the sentinel is the last item each worker will ever see:
            # holding the lifecycle lock here means no submission can
            # slip in behind it
            for q in self._queues:
                q.put(None)
        # join outside the lock — a blocking wait under the lifecycle
        # lock would stall every concurrent submitter for the full
        # drain (and close() never needs the lock again)
        for thread in self._threads:
            thread.join(timeout=30)

    # -- batch execution ---------------------------------------------------

    def run_batch(self, ops) -> BatchReport:
        """Execute *ops* across the shards; block until every partition
        finished (or died).  Each shard's partition runs on the calling
        thread or on its owner (module docstring)."""
        started = perf_counter()
        partitions: list[list[tuple[int, tuple]]] = [[] for _ in
                                                     range(self._n)]
        for index, op in enumerate(ops):
            if not op or op[0] not in _OPS:
                raise ReproError(f"bad batch op at {index}: {op!r}")
            partitions[self.tree.shard_of(op[1])].append((index, op))
        shards = [i for i, part in enumerate(partitions) if part]
        inline = not self._overlaps(shards, heals=False)
        results: list[OpResult | None] = [None] * len(ops)
        crashed = [False] * self._n
        done: dict[int, threading.Event] = {}
        with self._lifecycle:
            # closed-check, claims and enqueues are one atomic step: a
            # batch racing close() never lands behind the shutdown
            # sentinel, and never runs in part before it raises
            if self._closed:
                raise ReproError("worker pool is closed")
            here = self._claim_idle(shards, inline)
            for shard_index in shards:
                if shard_index not in here:
                    done[shard_index] = threading.Event()
                    self._busy[shard_index] += 1
                    self._queues[shard_index].put(
                        ("batch", partitions[shard_index], results,
                         crashed, done[shard_index]))
        self._run_here(here, "batch", partitions, results, crashed)
        for event in done.values():
            event.wait()

        self._m_batches.inc()
        self._m_ops.inc(len(ops))
        report = BatchReport(
            results=[r for r in results if r is not None],
            crashed_shards=[i for i in range(self._n) if crashed[i]],
            per_shard_ops=[len(p) for p in partitions],
            seconds=perf_counter() - started,
        )
        self._m_op_errors.inc(len(report.errors()))
        return report

    def submit(self, shard_index: int, fn) \
            -> tuple[threading.Event, dict]:
        """Run the zero-argument callable *fn* on *shard_index*'s owner
        thread, FIFO-ordered with batch and heal items — the serving
        layer's building block (group-commit barriers and range scans
        come through here; drain passes through :meth:`post`).

        Returns ``(done_event, errbox)``.  *fn* is expected to handle
        its own errors; anything that escapes is captured into
        ``errbox["error"]`` (never raised on the worker) so the owner
        thread survives for its siblings' work.
        """
        done = threading.Event()
        errbox: dict = {}
        self._enqueue(shard_index, ("call", fn, done, errbox))
        return done, errbox

    def post(self, shard_index: int, fn) -> None:
        """Queue *fn* on *shard_index*'s owner thread like :meth:`submit`,
        fire-and-forget: no event to wait on and no error box.  *fn*
        reports its own outcome (the serving layer's drain passes
        resolve their requests' futures); an error that still escapes
        it is dropped so the owner thread survives.  Until the owner
        starts it, a posted item does not keep a
        ``claim(..., behind_drains=True)`` out.  Raises
        :class:`ReproError` when the pool is closed."""
        self._enqueue(shard_index, ("post", fn, None, None))

    def _enqueue(self, shard_index: int, item: tuple) -> None:
        with self._lifecycle:
            # closed-check and enqueue are one atomic step, same as
            # run_batch: a submission racing close() must raise, never
            # land behind the shutdown sentinel
            if self._closed:
                raise ReproError("worker pool is closed")
            self._busy[shard_index] += 1
            if item[0] == "post":
                self._posted[shard_index] += 1
            self._queues[shard_index].put(item)

    # -- running on an idle shard from the calling thread -------------------

    def claim(self, shard_index: int, *,
              behind_drains: bool = False) -> bool:
        """Claim *shard_index* for the calling thread if nothing is
        queued or running on it; True when claimed.  With
        *behind_drains*, queued :meth:`post` items the owner has not
        started do not count: the claim is then refused only while the
        owner runs an item or a :meth:`submit` job, batch or heal is
        queued, so the claimant never overtakes one.  Until
        :meth:`release`, the caller is the one thread on the shard: the
        owner waits out the claim before its next item.  Never blocks."""
        with self._lifecycle:
            # _busy counts the running item too, and that one is never
            # a not-yet-started post
            ahead = self._busy[shard_index]
            if behind_drains:
                ahead -= self._posted[shard_index]
            if self._closed or ahead or self._claimed[shard_index]:
                return False
            self._claimed[shard_index] = True
            return True

    def release(self, shard_index: int) -> None:
        """End a :meth:`claim`; the owner runs whatever queued meanwhile."""
        with self._lifecycle:
            self._claimed[shard_index] = False
            self._lifecycle.notify_all()

    def run_heal(self, max_units_per_shard: int | None = None) \
            -> list[int]:
        """Drain the background heal queue — the idle-time counterpart
        of the per-op interleaving — each healing shard's share on the
        calling thread or on its owner (module docstring).  Blocks until
        every healing shard ran its budget (or healed, or died); returns
        the shards that crashed doing so."""
        targets = [] if self.heal is None else \
            [i for i in self.heal.pending_shards() if i < self._n]
        inline = not self._overlaps(targets, heals=True)
        budgets = [max_units_per_shard] * self._n
        crashed = [False] * self._n
        done: dict[int, threading.Event] = {}
        with self._lifecycle:
            # checked under the lock, as in run_batch: a close() racing
            # the pending_shards() probe above must not let heal items
            # land behind the shutdown sentinel
            if self._closed:
                raise ReproError("worker pool is closed")
            here = self._claim_idle(targets, inline)
            for shard_index in targets:
                if shard_index not in here:
                    done[shard_index] = threading.Event()
                    self._busy[shard_index] += 1
                    self._queues[shard_index].put(
                        ("heal", budgets[shard_index], None, crashed,
                         done[shard_index]))
        self._run_here(here, "heal", budgets, None, crashed)
        for event in done.values():
            event.wait()
        return [i for i in range(self._n) if crashed[i]]

    # -- batch and heal shares ---------------------------------------------

    def _overlaps(self, shards: list[int], *, heals: bool) -> bool:
        """Whether owner threads running *shards*' shares side by side
        can overlap a device wait: two or more shares, and one of them
        can sleep on its engine.  A share can sync when a scheduler is
        attached (a pressure sync), or when it heals — a heal share
        (*heals*), or a batch share on a shard still healing — since a
        heal syncs at its fixpoint."""
        if len(shards) < 2:
            return False
        group = self.tree.group
        for shard_index in shards:
            syncs = heals or self.scheduler is not None or (
                self.heal is not None and self.heal.healing(shard_index))
            if waits_on_device(group.shard(shard_index), syncs=syncs):
                return True
        return False

    def _claim_idle(self, shards: list[int], inline: bool) -> list[int]:
        """With *inline*, claim each of *shards* that nothing is queued
        on, running on or claiming, for the calling thread; returns
        those claimed, whose shares the caller runs (the rest go to
        their owners).  The caller holds ``_lifecycle``."""
        here = [i for i in shards
                if inline and not self._busy[i] and not self._claimed[i]]
        for shard_index in here:
            self._claimed[shard_index] = True
        self._m_here.inc(len(here))
        self._m_owner.inc(len(shards) - len(here))
        return here

    def _run_here(self, claimed: list[int], kind: str, args: list,
                  results, crashed: list[bool]) -> None:
        """Run each *claimed* shard's share of a batch (its partition
        in *args*) or of a heal pass (its unit budget) on the calling
        thread, one after another, storing whether the shard crashed in
        *crashed*.  Each claim is released as its share ends, and the
        claims of shares not reached when one raises."""
        pending = iter(claimed)
        try:
            for shard_index in pending:
                arg = args[shard_index]
                try:
                    crashed[shard_index] = (
                        self._run_partition(shard_index, arg, results)
                        if kind == "batch"
                        else self._run_heal(shard_index, arg))
                finally:
                    self.release(shard_index)
        finally:
            for shard_index in pending:
                self.release(shard_index)

    # -- the worker --------------------------------------------------------

    def _worker_loop(self, shard_index: int) -> None:
        q = self._queues[shard_index]
        while True:
            item = q.get()
            with self._lifecycle:
                # one thread at a time per shard: a caller that claimed
                # the shard while it was idle finishes first
                while self._claimed[shard_index]:
                    self._lifecycle.wait()
                if item is not None and item[0] == "post":
                    self._posted[shard_index] -= 1
            if item is None:
                return
            if item[0] in ("batch", "heal"):
                kind, arg, results, crashed, done = item
                try:
                    crashed[shard_index] = (
                        self._run_partition(shard_index, arg, results)
                        if kind == "batch"
                        else self._run_heal(shard_index, arg))
                finally:
                    done.set()
            else:
                _, fn, done, errbox = item
                try:
                    fn()
                except Exception as exc:  # lint: disable=R005
                    # a submitted closure let an error escape its own
                    # handling: record it for the submitter (a posted
                    # one has none) — the owner thread must survive for
                    # its shard's later work
                    if errbox is not None:
                        errbox["error"] = exc
                finally:
                    if done is not None:
                        done.set()
            with self._lifecycle:
                self._busy[shard_index] -= 1

    def _run_heal(self, shard_index: int, budget: int | None) -> bool:
        chunk = 32
        remaining = budget
        try:
            while True:
                step = chunk if remaining is None else min(chunk, remaining)
                if step <= 0 or not self.heal.step(shard_index,
                                                   max_units=step):
                    return False
                if remaining is not None:
                    remaining -= step
        except CrashError:
            return True
        except ReproError:
            # recorded by the queue against the shard; the owner thread
            # must survive for foreground work on its siblings' behalf
            return False

    def _run_partition(self, shard_index: int, partition,
                       results: list) -> bool:
        """Run one shard's partition of a batch, storing each op's
        :class:`OpResult` at its batch index; True when the shard
        crashed doing so."""
        tree = self.tree.trees[shard_index]
        dead_reason: str | None = None
        if tree is None or self.tree.group.shard(shard_index).dead:
            dead_reason = f"shard {shard_index} is dead (unrecovered)"
        # asked once per partition: a shard that healed (or failed to)
        # never heals again, so its ops skip the priority feed and the
        # heal step, and their locks, for the rest of the run
        heal = self.heal if self.heal is not None and \
            self.heal.healing(shard_index) else None
        crashed = False
        for index, op in partition:
            name, value = op[0], op[1]
            result = None
            error = dead_reason
            if error is None:
                try:
                    if heal is not None:
                        # promote the touched subtree, then pay a few
                        # units of background heal between foreground
                        # ops — the instant-restart interleaving
                        heal.note_access(shard_index,
                                         self.tree.codec.encode(value))
                    if name == "insert":
                        tree.insert(value, op[2])
                    elif name == "lookup":
                        result = tree.lookup(value)
                    else:
                        tree.delete(value)
                    if self.scheduler is not None:
                        self.scheduler.note_op(shard_index)
                    if heal is not None:
                        heal.step(shard_index,
                                  max_units=self.heal_units_per_op)
                except CrashError as exc:
                    error = f"shard crashed: {exc}"
                    dead_reason = f"shard {shard_index} crashed mid-batch"
                    crashed = True
                except EngineDeadError as exc:
                    error = dead_reason = str(exc)
                except ReproError as exc:
                    # per-op failure (duplicate key, missing key): the
                    # shard is fine, keep going
                    error = f"{type(exc).__name__}: {exc}"
            results[index] = OpResult(index=index, shard=shard_index,
                                      op=name, value=value, result=result,
                                      error=error)
        return crashed
