"""Admission control and cross-client batching for the dispatch pipeline.

:class:`ShardQueues` holds one bounded buffer per shard.  Sessions from
*different* clients append into the same buffer (admission control
rejects with a typed :class:`~repro.serve.errors.Overloaded` once the
bound is hit), and the shard's drain pass takes a chunk at a time — so
whatever accumulated while the owner thread was busy becomes one batch,
which is exactly where cross-client coalescing comes from: under
concurrent write load, adjacent requests in a chunk are different
clients' inserts, and :func:`coalesce` folds those runs into the tree's
``insert_many``/``delete_many`` fast paths.

The scheduled-flag discipline makes the buffer/drain handoff lossless:
``offer`` appends and tests the flag under one lock, ``reschedule``
tests the buffer and clears the flag under the same lock, so a request
can never be left buffered with no drain queued to serve it.
"""

from __future__ import annotations

import threading
from collections import deque

from .errors import Overloaded, ServerClosed
from .request import Request

#: Default per-shard admission bound (requests buffered, not yet taken).
DEFAULT_MAX_DEPTH = 256

#: Default maximum requests one drain pass takes (one batch).
DEFAULT_BATCH_MAX = 64


class ShardQueues:
    """Per-shard bounded request buffers with drain scheduling flags."""

    def __init__(self, n_shards: int,
                 max_depth: int = DEFAULT_MAX_DEPTH):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._buffers: list[deque[Request]] = [deque()
                                               for _ in range(n_shards)]
        self._scheduled = [False] * n_shards
        self._closed = False
        self._lock = threading.Lock()

    # -- admission (any client thread) ----------------------------------

    def offer(self, shard: int, request: Request) -> bool:
        """Admit *request* into *shard*'s buffer.

        Returns True when the caller must schedule a drain for the shard
        (no drain is currently queued or running).  Raises
        :class:`ServerClosed` after :meth:`close`, :class:`Overloaded`
        when the buffer is at its bound.
        """
        with self._lock:
            if self._closed:
                raise ServerClosed("server is closed")
            buf = self._buffers[shard]
            if len(buf) >= self.max_depth:
                raise Overloaded(shard, len(buf))
            buf.append(request)
            if self._scheduled[shard]:
                return False
            self._scheduled[shard] = True
            return True

    def idle(self, shard: int) -> bool:
        """True when *shard* has nothing buffered and no drain queued or
        running — a synchronous call may then run on the calling thread
        without overtaking anything.  Raises :class:`ServerClosed` after
        :meth:`close`, as :meth:`offer` does."""
        with self._lock:
            if self._closed:
                raise ServerClosed("server is closed")
            return not self._scheduled[shard]

    def depth(self, shard: int) -> int:
        with self._lock:
            return len(self._buffers[shard])

    # -- the drain side (shard owner thread) ----------------------------

    def take(self, shard: int, limit: int) -> list[Request]:
        """Pop up to *limit* buffered requests in FIFO order."""
        with self._lock:
            buf = self._buffers[shard]
            out = []
            while buf and len(out) < limit:
                out.append(buf.popleft())
            return out

    def reschedule(self, shard: int) -> bool:
        """After a drain chunk: True when more work remains and the
        caller must queue another drain (the flag stays set); False when
        the shard went idle (flag cleared) or the queues closed (the
        closer owns whatever remains)."""
        with self._lock:
            if self._closed or not self._buffers[shard]:
                self._scheduled[shard] = False
                return False
            return True

    def abandon(self, shard: int) -> list[Request]:
        """A drain could not be queued (the pool closed underneath):
        clear the flag and hand back the shard's buffered requests so
        the caller can fail their futures."""
        with self._lock:
            self._scheduled[shard] = False
            out = list(self._buffers[shard])
            self._buffers[shard].clear()
            return out

    # -- shutdown --------------------------------------------------------

    def close(self) -> list[Request]:
        """Refuse all future admissions; returns every still-buffered
        request (the caller fails them with :class:`ServerClosed` so no
        waiter hangs).  Idempotent."""
        with self._lock:
            self._closed = True
            out: list[Request] = []
            for buf in self._buffers:
                out.extend(buf)
                buf.clear()
            return out


def coalesce(batch: list[Request]) -> list[tuple[str, object]]:
    """Fold a drain chunk into an execution plan.

    Adjacent runs of same-op writes become ``("insert_many", [reqs])`` /
    ``("delete_many", [reqs])`` entries for the tree's batched fast
    paths; everything else stays ``("one", req)``.  Only *adjacent*
    requests are grouped, so the shard's FIFO order — the only ordering
    a hash-partitioned store promises — is preserved exactly.
    """
    plan: list[tuple[str, object]] = []
    i = 0
    n = len(batch)
    while i < n:
        req = batch[i]
        if req.op in ("insert", "delete"):
            j = i + 1
            while j < n and batch[j].op == req.op:
                j += 1
            run = batch[i:j]
            if len(run) > 1:
                plan.append((req.op + "_many", run))
            else:
                plan.append(("one", req))
            i = j
        else:
            plan.append(("one", req))
            i += 1
    return plan
