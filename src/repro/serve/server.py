"""The serving core: dispatch, drain, and commit for concurrent clients.

:class:`Server` wraps one :class:`~repro.shard.engine.ShardedTree` (and
its :class:`~repro.shard.workers.ShardWorkerPool` /
:class:`~repro.shard.scheduler.GroupSyncScheduler`) behind a
thread-safe front door.  Any number of client threads hold
:class:`~repro.serve.session.Session` handles, and one thread at a time
runs on a shard, so the single-threaded engine machinery is never
shared.  Who runs an operation:

* a **synchronous** call (:meth:`Server.call`, behind ``Session.get`` /
  ``insert`` / ``delete`` / ``update``) whose shard is idle — nothing
  queued or running in the pool, no drain scheduled — claims the shard
  and runs on the calling thread, through the same :meth:`_execute` a
  drain uses; it pays no thread hand-off;
* everything else (pipelined ``Session.submit``, or a synchronous call
  that finds its shard busy) is routed to its shard, admitted into that
  shard's bounded buffer (:class:`~repro.serve.batcher.ShardQueues`),
  and executed a chunk at a time by a *drain pass* — so different
  clients' requests for the same shard coalesce into one batch and ride
  the tree's ``insert_many``/``delete_many`` fast paths.  The shard's
  owner thread runs the pass it was posted, unless a client gets there
  first: a client about to block on an admitted request's future runs
  the helper :meth:`_admit` installed on it (:meth:`_help`), which
  claims the shard when the owner runs nothing and only drains are
  queued, and runs the buffered requests on the waiting thread, through
  the owner's chunk body, until its own resolves.

These are the two halves of flat combining (Hendler et al., SPAA 2010):
an uncontended caller runs its own operation, and a waiter becomes the
combiner for whatever piled up ahead of it.  The synchronous claim is
taken only on an empty buffer, so a synchronous call never overtakes a
request its session (or any other) buffered earlier; the waiter's claim
is refused while a barrier, scan, batch or heal is queued, and its
chunks are taken FIFO, so it overtakes nothing either.

Commits funnel through the
:class:`~repro.serve.commit.GroupCommitStage`, so one sync barrier
acknowledges every commit pending at that moment.

Coalesced runs need no membership probe: the tree's ``insert_many`` /
``delete_many`` search each key once, apply every key they can, and
raise one error naming the positions they rejected (a duplicate insert,
a delete of a missing key).  The drain pass fails exactly those
requests and acknowledges the rest; the batch is applied in stable key
order, so of two requests for the same key in one run the later fails,
as it would one at a time.
"""

from __future__ import annotations

import heapq
import threading
from functools import partial
from time import perf_counter

from ..errors import CrashError, KeyRejectedError, ReproError
from ..obs import get_registry
from ..shard.engine import ShardedTree
from ..shard.scheduler import GroupSyncScheduler
from ..shard.workers import ShardWorkerPool
from ..storage.engine import EngineDeadError
from .batcher import (DEFAULT_BATCH_MAX, DEFAULT_MAX_DEPTH, ShardQueues,
                      coalesce)
from .commit import GroupCommitStage
from .errors import ServeError, ServerClosed
from .request import DEFAULT_WAIT_SECONDS, OPS, CommitRequest, Request
from .session import Session


class Server:
    """Concurrent serving front-end over one sharded tree."""

    def __init__(self, tree: ShardedTree, *,
                 scheduler: GroupSyncScheduler | None = None,
                 pool: ShardWorkerPool | None = None,
                 max_queue_depth: int = DEFAULT_MAX_DEPTH,
                 batch_max: int = DEFAULT_BATCH_MAX,
                 window_delay: float | None = None):
        self.tree = tree
        self.group = tree.group
        self.scheduler = scheduler if scheduler is not None \
            else GroupSyncScheduler(tree.group)
        self.pool = pool if pool is not None else ShardWorkerPool(
            tree, scheduler=self.scheduler)
        self.queues = ShardQueues(len(tree.trees),
                                  max_depth=max_queue_depth)
        self.batch_max = batch_max
        kwargs = {} if window_delay is None \
            else {"window_delay": window_delay}
        self.commit_stage = GroupCommitStage(
            tree.group, self.scheduler, self.pool, **kwargs)
        self._closed = False
        self._close_lock = threading.Lock()
        self._next_session = 0
        #: per shard: the helper an admitted request's future carries
        self._helpers = [partial(self._help, shard)
                         for shard in range(len(tree.trees))]
        reg = get_registry()
        self._m_requests = {op: reg.counter("serve.requests", op=op)
                            for op in OPS}
        # every admitted request is exactly one of these two
        self._m_ran_here = reg.counter("serve.ran_here")
        self._m_queued = reg.counter("serve.queued")
        # the queued requests a waiter ran (see _help)
        self._m_helped = reg.counter("serve.helped")
        self._m_overloaded = reg.counter("serve.overloaded")
        self._m_batches = reg.counter("serve.batches")
        self._m_coalesced = reg.counter("serve.coalesced_ops")
        self._m_commits = reg.counter("serve.commits")
        self._h_commit = reg.histogram("serve.commit_seconds")

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop admissions, fail still-buffered requests with
        :class:`ServerClosed`, flush pending commits through one final
        barrier, then shut the worker pool down.  Idempotent."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        # 1. refuse new admissions; anything still buffered never
        #    reached an owner thread, so its future must be failed here
        #    or its waiter hangs on the pool's shutdown sentinel
        for request in self.queues.close():
            request.future.set_error(
                ServerClosed("server closed before the request ran"))
        # 2. stop the committer (flushes commits already submitted)
        self.commit_stage.stop()
        # 3. drain and join the owner threads
        self.pool.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def session(self) -> Session:
        """A new client handle.  Sessions are not thread-safe: one per
        client thread."""
        with self._close_lock:
            if self._closed:
                raise ServerClosed("server is closed")
            self._next_session += 1
            return Session(self, self._next_session)

    # -- submission (any client thread) ------------------------------------

    def call(self, op: str, value: object, tid: object = None,
             session_id: int = -1) -> Request:
        """Route one operation for a caller that will wait on it (the
        synchronous path); returns its :class:`Request`.  When the
        routed shard is idle the operation runs right here, on the
        calling thread, under a claim on the shard, and the request
        comes back resolved; otherwise it is admitted as by
        :meth:`submit` and resolves on the owner thread.  Raises like
        :meth:`submit`."""
        if op not in OPS:
            raise ReproError(f"unknown op {op!r}; expected one of {OPS}")
        shard = self.tree.shard_of(value)
        request = Request(op, value, tid, shard, session_id)
        if self.pool.claim(shard):
            try:
                ran_here = self.queues.idle(shard)
                if ran_here:
                    self._m_requests[op].inc()
                    self._m_ran_here.inc()
                    self._execute(shard, [request])
            finally:
                self.pool.release(shard)
            if ran_here:
                return request
        self._admit(request)
        return request

    def submit(self, op: str, value: object, tid: object = None,
               session_id: int = -1) -> Request:
        """Route, admit, and (if needed) schedule a drain for one
        operation.  Returns the in-flight :class:`Request`; its future
        resolves on the shard's owner thread, or on a client thread
        waiting on it (:meth:`_help`).

        Raises :class:`ServerClosed` / :class:`Overloaded` synchronously
        — admission failures never consume queue space.
        """
        if op not in OPS:
            raise ReproError(f"unknown op {op!r}; expected one of {OPS}")
        request = Request(op, value, tid, self.tree.shard_of(value),
                          session_id)
        self._admit(request)
        return request

    def _admit(self, request: Request) -> None:
        shard = request.shard
        request.future.helper = self._helpers[shard]
        try:
            must_schedule = self.queues.offer(shard, request)
        except ServeError as exc:
            if not isinstance(exc, ServerClosed):
                self._m_overloaded.inc()
            raise
        self._m_requests[request.op].inc()
        self._m_queued.inc()
        if must_schedule:
            self._schedule_drain(shard)

    def _schedule_drain(self, shard: int) -> None:
        try:
            self.pool.post(shard, lambda: self._drain(shard))
        except ReproError:
            # the pool closed between admission and scheduling: the
            # buffered requests will never be drained, so fail them now
            for request in self.queues.abandon(shard):
                request.future.set_error(ServerClosed(
                    "server closed before the request ran"))

    # -- the drain pass (shard owner thread) -------------------------------

    def _drain(self, shard: int) -> None:
        """Take one chunk, execute it, and requeue ourselves if more
        arrived meanwhile.  Chunked so a busy shard's drain never
        starves FIFO items (commit barriers, heals) queued behind it.

        A drain is posted fire-and-forget, so nobody reads what escapes
        it; the shard is rescheduled all the same — its later requests
        are still served."""
        try:
            self._drain_chunk(shard)
        finally:
            if self.queues.reschedule(shard):
                self._schedule_drain(shard)

    def _drain_chunk(self, shard: int) -> int:
        """Take one chunk of *shard*'s buffer, FIFO, and execute it;
        returns how many requests it took.  The caller is the one thread
        on the shard: its owner (:meth:`_drain`) or a waiter holding the
        shard's claim (:meth:`_help`).  An error :meth:`_execute` does
        not handle fails the chunk's still-unresolved requests with a
        :class:`ServeError` naming the cause, then propagates."""
        batch = self.queues.take(shard, self.batch_max)
        try:
            if batch:
                self._execute(shard, batch)
        except BaseException as exc:
            error = ServeError(f"drain pass on shard {shard} failed: "
                               f"{type(exc).__name__}: {exc}")
            for request in batch:
                if not request.future.done():
                    request.future.set_error(error)
            raise
        return len(batch)

    # -- a waiter drains its own shard (client thread) ---------------------

    def _help(self, shard: int, future) -> None:
        """A client is about to block on *future*, a request admitted to
        *shard*: when the shard is idle but for posted drains, claim it
        and run its buffered requests here, chunk by chunk, until the
        future resolves — the waiter becomes the combiner.  Refused
        (the owner is running, or a barrier, scan, batch or heal is
        queued), the waiter blocks as before.  The owner's posted drain
        later finds what is left, or nothing, and clears the scheduled
        flag; so admission, FIFO order and liveness are the drain's."""
        if not self.pool.claim(shard, behind_drains=True):
            return
        try:
            while not future.done():
                taken = self._drain_chunk(shard)
                if not taken:
                    break
                self._m_helped.inc(taken)
        except Exception:  # lint: disable=R005
            # the chunk's requests carry the error; the waiter blocks
            # and the owner's posted drain serves the rest
            pass
        finally:
            self.pool.release(shard)

    def _execute(self, shard: int, batch: list[Request]) -> None:
        """Run *batch* on *shard* and resolve every request's future.
        The caller is the one thread on the shard: its owner (a drain
        pass) or a client holding the shard's claim (:meth:`call`)."""
        self._m_batches.inc()
        plan = coalesce(batch)
        dead_reason: str | None = None
        if (self.tree.trees[shard] is None
                or self.group.shard(shard).dead):
            dead_reason = f"shard {shard} is dead (unrecovered)"
        wrote = False
        for kind, payload in plan:
            if dead_reason is not None:
                for request in _requests_of(kind, payload):
                    request.future.set_error(EngineDeadError(dead_reason))
                continue
            try:
                if kind == "one":
                    self._run_one(payload)
                    if payload.op != "lookup":
                        wrote = True
                else:
                    self._run_many(shard, kind, payload)
                    wrote = True
            except CrashError as exc:
                dead_reason = f"shard {shard} crashed mid-batch: {exc}"
            except EngineDeadError as exc:
                dead_reason = str(exc)
        if wrote:
            try:
                self.scheduler.note_op(shard)
            except CrashError:
                pass  # the shard died syncing; later requests will see it

    def _run_one(self, request: Request) -> None:
        """Execute a single request; resolve its future exactly once
        (errors land on the future, not the running thread)."""
        tree = self.tree
        try:
            if request.op == "lookup":
                request.future.set_result(tree.lookup(request.value))
            elif request.op == "insert":
                tree.insert(request.value, request.tid)
                request.future.set_result(None)
            elif request.op == "delete":
                tree.delete(request.value)
                request.future.set_result(None)
            else:  # update (server-side upsert)
                request.future.set_result(
                    tree.update(request.value, request.tid))
        except (CrashError, EngineDeadError) as exc:
            request.future.set_error(exc)
            raise
        except ReproError as exc:
            # per-request failure (duplicate key, missing key): the
            # shard is fine, the batch continues
            request.future.set_error(exc)

    def _run_many(self, shard: int, kind: str,
                  run: list[Request]) -> None:
        """Execute a coalesced same-op run through the tree's batched
        call, which applies every key it can and names the positions it
        rejected (see module docstring)."""
        rejected: dict[int, ReproError] = {}
        try:
            tree = self.tree.live_tree(shard)
            if kind == "insert_many":
                tree.insert_many([(r.value, r.tid) for r in run])
            else:
                tree.delete_many([r.value for r in run])
        except KeyRejectedError as exc:
            what = "already present" if kind == "insert_many" \
                else "not found"
            rejected = {pos: type(exc)(f"key {run[pos].value!r} {what}")
                        for pos in exc.positions}
        except (CrashError, EngineDeadError) as exc:
            # the shard died under the run: which keys landed is
            # unknowable, so every request of it carries the error
            # (as _run_one's does) and _execute fails the rest
            for request in run:
                request.future.set_error(exc)
            raise
        self._m_coalesced.inc(len(run) - len(rejected))
        for pos, request in enumerate(run):
            if pos in rejected:
                request.future.set_error(rejected[pos])
            else:
                request.future.set_result(None)

    # -- commit ------------------------------------------------------------

    def commit(self, shards, session_id: int = -1, *,
               closes_writer: bool = False) -> int:
        """Make every write the session performed against *shards*
        durable; returns the covering group sync window ordinal.
        Raises :class:`CommitFailed` when durability cannot be proven.
        *closes_writer* is :meth:`GroupCommitStage.submit`'s: the
        session had reported itself an open writer."""
        started = _now()
        try:
            commit = CommitRequest(shards=frozenset(shards),
                                   session_id=session_id)
            self.commit_stage.submit(commit, closes_writer=closes_writer)
            return int(commit.future.result(DEFAULT_WAIT_SECONDS))
        finally:
            self._m_commits.inc()
            self._h_commit.observe(max(0.0, _now() - started))

    # -- reads spanning shards ---------------------------------------------

    def range_scan(self, lo=None, hi=None) -> list[tuple[object, object]]:
        """Globally ordered scan through the owner threads: each shard's
        stream is materialized by its own worker (FIFO with writes), then
        merged by encoded key."""
        boxes: list[dict] = []
        waits: list[threading.Event] = []
        for shard in range(len(self.tree.trees)):
            box: dict = {}
            try:
                done, errbox = self.pool.submit(
                    shard, _scan_fn(self.tree, shard, lo, hi, box))
            except ReproError:
                raise ServerClosed(
                    "server closed during range scan") from None
            boxes.append(box)
            waits.append(done)
            box["errbox"] = errbox
        for done in waits:
            done.wait(timeout=DEFAULT_WAIT_SECONDS)
        streams = []
        for shard, box in enumerate(boxes):
            error = box.get("error") or box["errbox"].get("error")
            if error is not None:
                raise error if isinstance(error, ReproError) \
                    else ReproError(str(error))
            streams.append(box.get("rows", []))
        encode = self.tree.codec.encode
        return list(heapq.merge(*streams,
                                key=lambda pair: encode(pair[0])))

    # -- instant-restart passthrough ---------------------------------------

    def run_heal(self, max_units_per_shard: int | None = None) \
            -> list[int]:
        """Drain the attached background heal queue on the owner
        threads (instant-restart serving; no-op without a queue)."""
        return self.pool.run_heal(max_units_per_shard)


def _requests_of(kind: str, payload) -> list[Request]:
    return [payload] if kind == "one" else list(payload)


def _scan_fn(tree: ShardedTree, shard: int, lo, hi, box: dict):
    def scan() -> None:
        try:
            box["rows"] = list(tree.live_tree(shard).range_scan(lo, hi))
        except ReproError as exc:
            box["error"] = exc
    return scan


_now = perf_counter
