"""Per-shard worker pool: batched operations, one thread at a time per shard.

The concurrency model is deliberately boring: shard *i*'s engine, trees,
buffer pools and freelists are touched by one thread at a time — the
shard's owner thread, or a caller that claimed the shard while it was
idle — so none of the single-engine machinery needs latching and the
latch-protocol invariants hold per shard by construction.  Parallelism
comes from shards being independent, not from threads sharing a tree.

**Who runs on a shard.**  Every queued item (batch partition, submitted
callable, posted callable, heal budget) runs on the shard's owner
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

A batch is a list of ``("insert", value, tid)`` / ``("lookup", value)`` /
``("delete", value)`` tuples in client order.  The pool partitions it by
the routed shard of each value (preserving per-shard arrival order, which
is all a hash-partitioned store can promise), runs the partitions
concurrently, and reassembles results into the original order.

Failure semantics mirror the group's: a shard that crashes mid-batch
stops executing *its* remaining operations (each reported as an error)
while sibling shards run their partitions to completion.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from time import perf_counter

from ..errors import CrashError, ReproError
from ..obs import get_registry
from ..storage.engine import EngineDeadError
from .engine import ShardedTree
from .heal import HealQueue
from .scheduler import GroupSyncScheduler

_OPS = ("insert", "lookup", "delete")


@dataclass
class OpResult:
    """Outcome of one batched operation."""

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
        finished (or died)."""
        with self._lifecycle:
            if self._closed:
                raise ReproError("worker pool is closed")
        started = perf_counter()
        partitions: list[list[tuple[int, tuple]]] = [[] for _ in
                                                     range(self._n)]
        results: list[OpResult | None] = [None] * len(ops)
        for index, op in enumerate(ops):
            if not op or op[0] not in _OPS:
                raise ReproError(f"bad batch op at {index}: {op!r}")
            partitions[self.tree.shard_of(op[1])].append((index, op))

        done = [threading.Event() for _ in range(self._n)]
        crashed: list[int] = []
        crashed_lock = threading.Lock()
        with self._lifecycle:
            # re-checked: a close() racing the partitioning above must
            # not let batch items land behind the shutdown sentinel
            if self._closed:
                raise ReproError("worker pool is closed")
            for shard_index in range(self._n):
                self._busy[shard_index] += 1
                self._queues[shard_index].put(
                    ("batch", partitions[shard_index], results,
                     done[shard_index], crashed, crashed_lock))
        for event in done:
            event.wait()

        self._m_batches.inc()
        self._m_ops.inc(len(ops))
        report = BatchReport(
            results=[r for r in results if r is not None],
            crashed_shards=sorted(crashed),
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
        """Drain the background heal queue on the owner threads — the
        idle-time counterpart of the per-op interleaving.  Blocks until
        every healing shard ran its budget (or healed, or died); returns
        the shards that crashed doing so."""
        with self._lifecycle:
            if self._closed:
                raise ReproError("worker pool is closed")
        if self.heal is None:
            return []
        targets = [i for i in self.heal.pending_shards() if i < self._n]
        if not targets:
            return []
        done = {i: threading.Event() for i in targets}
        crashed: list[int] = []
        crashed_lock = threading.Lock()
        with self._lifecycle:
            # re-checked under the lock: a close() racing the
            # pending_shards() probe above must not let heal items land
            # behind the shutdown sentinel
            if self._closed:
                raise ReproError("worker pool is closed")
            for shard_index in targets:
                self._busy[shard_index] += 1
                self._queues[shard_index].put(
                    ("heal", max_units_per_shard, done[shard_index],
                     crashed, crashed_lock))
        for event in done.values():
            event.wait()
        return sorted(crashed)

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
            if item[0] == "batch":
                _, partition, results, done, crashed, crashed_lock = item
                try:
                    self._run_partition(shard_index, partition, results,
                                        crashed, crashed_lock)
                finally:
                    done.set()
            elif item[0] in ("call", "post"):
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
            else:
                _, budget, done, crashed, crashed_lock = item
                try:
                    self._run_heal(shard_index, budget, crashed,
                                   crashed_lock)
                finally:
                    done.set()
            with self._lifecycle:
                self._busy[shard_index] -= 1

    def _run_heal(self, shard_index: int, budget: int | None,
                  crashed, crashed_lock) -> None:
        chunk = 32
        remaining = budget
        try:
            while True:
                step = chunk if remaining is None else min(chunk, remaining)
                if step <= 0 or not self.heal.step(shard_index,
                                                   max_units=step):
                    return
                if remaining is not None:
                    remaining -= step
        except CrashError:
            with crashed_lock:
                crashed.append(shard_index)
        except ReproError:
            # recorded by the queue against the shard; the owner thread
            # must survive for foreground work on its siblings' behalf
            pass

    def _run_partition(self, shard_index: int, partition, results,
                       crashed, crashed_lock) -> None:
        tree = self.tree.trees[shard_index]
        dead_reason: str | None = None
        if tree is None or self.tree.group.shard(shard_index).dead:
            dead_reason = f"shard {shard_index} is dead (unrecovered)"
        for index, op in partition:
            name, value = op[0], op[1]
            entry = OpResult(index=index, shard=shard_index, op=name,
                             value=value)
            results[index] = entry
            if dead_reason is not None:
                entry.error = dead_reason
                continue
            try:
                if self.heal is not None:
                    # promote the touched subtree, then pay a few units
                    # of background heal between foreground ops — the
                    # instant-restart interleaving
                    self.heal.note_access(shard_index,
                                          self.tree.codec.encode(value))
                if name == "insert":
                    tree.insert(value, op[2])
                elif name == "lookup":
                    entry.result = tree.lookup(value)
                else:
                    tree.delete(value)
                if self.scheduler is not None:
                    self.scheduler.note_op(shard_index)
                if self.heal is not None:
                    self.heal.step(shard_index,
                                   max_units=self.heal_units_per_op)
            except CrashError as exc:
                entry.error = f"shard crashed: {exc}"
                dead_reason = f"shard {shard_index} crashed mid-batch"
                with crashed_lock:
                    crashed.append(shard_index)
            except EngineDeadError as exc:
                entry.error = str(exc)
                dead_reason = entry.error
            except ReproError as exc:
                # per-op failure (duplicate key, missing key): the shard
                # is fine, keep going
                entry.error = f"{type(exc).__name__}: {exc}"
