"""Span recorder: wraps the public callables at each layer boundary.

Tracing inside ``src/`` is a later change (ROADMAP item 5); until then
the benchmark records spans from outside, by replacing — for the length
of a traced phase — the public methods where one layer calls the next.
A span is ``[name, start, end, parent, request id, value]`` kept in a
per-thread list; ``parent`` indexes the same thread's list, the request
id ties together the spans one client request caused on the client
thread, the shard owner thread and the committer, and ``value`` carries
a wrapper-specific number (heal units run, the owner wake-up a queue
wait contains).  Self time is duration minus the time covered by child
spans.

Nothing is written while recording; :meth:`SpanRecorder.write` dumps
the spans as JSON lines afterwards.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict, deque
from itertools import count
from time import perf_counter

from repro.core import BLinkTree
from repro.serve import GroupCommitStage, Server, Session, ShardQueues
from repro.shard import (GroupSyncScheduler, HealQueue, RecoveryOrchestrator,
                         ShardedTree, ShardWorkerPool)
from repro.storage import BufferPool, SimulatedDisk, StorageEngine
from repro.wal import StableLog
from repro.wal import parallel as wal_parallel

NAME, START, END, PARENT, RID, VALUE = range(6)

#: Spans built from timestamps the program already keeps (a request's
#: ``submitted_at``) rather than from a wrapped call; they overlap real
#: spans, so they never take part in parent/child accounting.
SYNTHETIC = frozenset({"shard.owner_wait", "serve.queue_wait",
                       "serve.window_wait"})


class _ThreadLog:
    __slots__ = ("thread", "spans", "stack", "rid", "pending", "job")

    def __init__(self, thread: str):
        self.thread = thread
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rid: int | None = None
        #: (value, rid) of the requests the running drain pass took
        self.pending: list[tuple[object, int | None]] = []
        #: (submitted, started) of the pool job this thread is running
        self.job = (0.0, 0.0)


class SpanRecorder:
    """Install with :meth:`install`, undo with :meth:`uninstall`; every
    wrapped attribute is restored exactly."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._patched: list[tuple[object, str, object]] = []
        self._next_rid = count(1).__next__
        self._commit_submits: deque[float] = deque()

    # -- per-thread state ----------------------------------------------

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = _ThreadLog(threading.current_thread().name)
            with self._lock:
                self._logs.append(log)
            self._local.log = log
            return log

    # -- wrapper factories ---------------------------------------------

    def _span(self, name: str, fn, *, keep_result: bool = False):
        get_log = self._log

        def wrapper(*args, **kwargs):
            log = get_log()
            stack, spans = log.stack, log.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, log.rid, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep_result:
                    span[VALUE] = result
                return result
            finally:
                span[END] = perf_counter()
                stack.pop()
        return wrapper

    def _client(self, name: str, fn):
        """A ``Session`` entry point: the outermost one opens a request."""
        inner = self._span(name, fn)
        get_log, next_rid = self._log, self._next_rid

        def wrapper(*args, **kwargs):
            log = get_log()
            if log.rid is not None:
                return inner(*args, **kwargs)
            log.rid = next_rid()
            try:
                return inner(*args, **kwargs)
            finally:
                log.rid = None
        return wrapper

    def _offer(self, fn):
        inner = self._span("serve.offer", fn)
        get_log = self._log

        def wrapper(queues, shard, request):
            # tag before admission: the owner thread may take the
            # request the moment it is buffered
            request.perf_rid = get_log().rid
            return inner(queues, shard, request)
        return wrapper

    def _take(self, fn):
        inner = self._span("serve.take", fn)
        get_log = self._log

        def wrapper(*args, **kwargs):
            batch = inner(*args, **kwargs)
            log = get_log()
            now = perf_counter()
            log.pending = []
            job_submitted, job_started = log.job
            for request in batch:
                rid = getattr(request, "perf_rid", None)
                # VALUE: the part of the wait that was the owner thread
                # waking up for the drain job that took the request
                woke = job_started - max(request.submitted_at, job_submitted)
                log.spans.append(["serve.queue_wait", request.submitted_at,
                                  now, -1, rid, max(woke, 0.0)])
                log.pending.append((request.value, rid))
            return batch
        return wrapper

    def _pool_submit(self, fn):
        inner = self._span("shard.pool_submit", fn)
        get_log = self._log
        run_job = self._span("shard.job", lambda job: job())

        def wrapper(pool, shard_index, job):
            submitted = perf_counter()
            rid = get_log().rid

            def traced_job():
                log = get_log()
                started = perf_counter()
                log.spans.append(["shard.owner_wait", submitted, started,
                                  -1, rid, 0])
                log.job = (submitted, started)
                return run_job(job)
            return inner(pool, shard_index, traced_job)
        return wrapper

    def _routed(self, name: str, fn):
        """A ``ShardedTree`` single-key op: on an owner thread it adopts
        the request id of the buffered request it serves."""
        inner = self._span(name, fn)
        get_log = self._log

        def wrapper(tree, value, *args, **kwargs):
            log = get_log()
            if log.rid is not None or not log.pending:
                return inner(tree, value, *args, **kwargs)
            for i, (pending_value, rid) in enumerate(log.pending):
                if pending_value == value:
                    del log.pending[i]
                    log.rid = rid
                    break
            try:
                return inner(tree, value, *args, **kwargs)
            finally:
                log.rid = None
        return wrapper

    def _commit_submit(self, fn):
        inner = self._span("serve.commit_submit", fn)
        submits = self._commit_submits

        def wrapper(*args, **kwargs):
            submits.append(perf_counter())
            return inner(*args, **kwargs)
        return wrapper

    def _barrier(self, fn):
        inner = self._span("shard.barrier", fn)
        get_log, submits = self._log, self._commit_submits

        def wrapper(scheduler, pool, commits=0):
            log = get_log()
            now = perf_counter()
            for _ in range(min(commits, len(submits))):
                log.spans.append(["serve.window_wait", submits.popleft(),
                                  now, -1, None, 0])
            return inner(scheduler, pool, commits)
        return wrapper

    # -- install / uninstall -------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self, only: frozenset[str] | None = None) -> None:
        """Wrap the layer boundaries.  With *only*, wrap just the spans
        named (set-up phases trace a single layer)."""
        def span(owner, attr, name, **kw):
            if only is None or name in only:
                self._patch(owner, attr,
                            lambda fn: self._span(name, fn, **kw))

        def special(owner, attr, name, make):
            if only is None or name in only:
                self._patch(owner, attr, make)

        for op in ("get", "insert", "delete", "update", "submit", "commit"):
            special(Session, op, f"client.{op}",
                    lambda fn, op=op: self._client(f"client.{op}", fn))
        span(Server, "submit", "serve.submit")
        span(Server, "commit", "serve.commit")
        special(ShardQueues, "offer", "serve.offer", self._offer)
        special(ShardQueues, "take", "serve.take", self._take)
        special(GroupCommitStage, "submit", "serve.commit_submit",
                self._commit_submit)
        special(ShardWorkerPool, "submit", "shard.pool_submit",
                self._pool_submit)
        span(ShardWorkerPool, "run_batch", "shard.run_batch")
        span(ShardWorkerPool, "run_heal", "shard.run_heal")
        special(GroupSyncScheduler, "sync_group_parallel", "shard.barrier",
                self._barrier)
        span(ShardedTree, "shard_of", "shard.route")
        for op in ("lookup", "insert", "delete", "update"):
            special(ShardedTree, op, f"shard.{op}",
                    lambda fn, op=op: self._routed(f"shard.{op}", fn))
        span(ShardedTree, "insert_many", "shard.insert_many")
        span(ShardedTree, "delete_many", "shard.delete_many")
        span(RecoveryOrchestrator, "recover", "shard.recover")
        span(HealQueue, "step", "shard.heal_step", keep_result=True)
        for op in ("lookup", "insert", "delete", "insert_many",
                   "delete_many"):
            span(BLinkTree, op, f"core.{op}")
        span(BufferPool, "pin", "storage.pin")
        span(BufferPool, "unpin", "storage.unpin")
        span(SimulatedDisk, "read_page", "storage.disk_read")
        span(SimulatedDisk, "write_page", "storage.disk_write")
        span(SimulatedDisk, "sync", "storage.disk_sync")
        span(StorageEngine, "sync", "storage.engine_sync")
        span(StorageEngine, "reopen", "storage.reopen")
        span(StableLog, "append", "wal.append")
        span(wal_parallel, "partition_records", "wal.partition")
        span(wal_parallel, "replay_group", "wal.replay")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- reading the recording -----------------------------------------

    def table(self) -> "SpanTable":
        with self._lock:
            return SpanTable([(log.thread, log.spans)
                              for log in self._logs])

    def write(self, path: str) -> int:
        """Dump every span as one JSON object per line; returns the
        number written."""
        written = 0
        with self._lock:
            logs = list(self._logs)
        with open(path, "w") as out:
            for t, log in enumerate(logs):
                for i, span in enumerate(log.spans):
                    parent = span[PARENT]
                    json.dump({
                        "id": f"{t}:{i}", "name": span[NAME],
                        "start": span[START], "end": span[END],
                        "parent": f"{t}:{parent}" if parent >= 0 else None,
                        "request": span[RID], "thread": log.thread,
                    }, out)
                    out.write("\n")
                    written += 1
        return written


class SpanTable:
    """Read-only view of a finished recording, grouped by span name."""

    def __init__(self, logs: list[tuple[str, list[list]]]):
        self.by_name: dict[str, list[list]] = defaultdict(list)
        self._self_time: dict[str, float] = defaultdict(float)
        for _thread, spans in logs:
            child_time = [0.0] * len(spans)
            for span in spans:
                if span[PARENT] >= 0:
                    child_time[span[PARENT]] += span[END] - span[START]
            for i, span in enumerate(spans):
                name = span[NAME]
                self.by_name[name].append(span)
                if name not in SYNTHETIC:
                    self._self_time[name] += \
                        span[END] - span[START] - child_time[i]

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.by_name.get(name, ())]

    def self_time(self, *names: str) -> float:
        """Summed self time (seconds) of every span so named."""
        return sum(self._self_time.get(name, 0.0) for name in names)

    def self_times(self) -> dict[str, float]:
        return dict(self._self_time)

    def per_request(self, name: str) -> dict[int, list]:
        """The last span called *name* of each request id."""
        return {s[RID]: s for s in self.by_name.get(name, ())
                if s[RID] is not None}
