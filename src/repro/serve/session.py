"""Client-side session handle: one per client thread.

A :class:`Session` is the serving layer's unit of commitment.  It
pipelines operations through :meth:`submit` (futures resolve on shard
owner threads), tracks which shards its writes dirtied, and at
:meth:`commit` asks the server to prove exactly those shards durable.
The synchronous wrappers (:meth:`get`, :meth:`insert`, ...) go through
:meth:`Server.call <repro.serve.server.Server.call>` instead: on an
idle shard the operation runs on this thread, otherwise it queues
behind whatever is buffered there — so it never overtakes this
session's own pipelined requests.

Sessions are deliberately **not** thread-safe — a client thread owns its
session the way a shard owner owns its engine.  Two threads sharing a
session would interleave dirty-shard tracking and commit boundaries into
nonsense; give each thread its own session instead (that is the whole
point of the server being shared).
"""

from __future__ import annotations

from .request import WRITE_OPS, OpFuture, Request

#: Reap resolved futures once the pending list grows past this.
_REAP_THRESHOLD = 64


class Session:
    """One client's pipelined view of the server."""

    def __init__(self, server, session_id: int):
        self.server = server
        self.session_id = session_id
        #: futures of operations submitted since the last commit/drain
        self._pending: list[OpFuture] = []
        #: shards dirtied by writes since the last successful commit
        self._dirty: set[int] = set()
        #: wrote since the last commit() call, and told the commit stage
        #: so: siblings' commits wait for ours (an *open writer*)
        self._open = False

    # -- pipelined submission ----------------------------------------------

    def submit(self, op: str, value: object, tid: object = None) -> Request:
        """Fire one operation into the pipeline; returns the in-flight
        request (``request.future.result()`` to rendezvous)."""
        request = self.server.submit(op, value, tid,
                                     session_id=self.session_id)
        if op in WRITE_OPS:
            self._wrote(request.shard)
        self._pending.append(request.future)
        if len(self._pending) > _REAP_THRESHOLD:
            self._pending = [f for f in self._pending if not f.done()]
        return request

    def _wrote(self, shard: int) -> None:
        self._dirty.add(shard)
        if not self._open:
            self._open = True
            self.server.commit_stage.writer_opened(self.session_id)

    # -- synchronous convenience wrappers ----------------------------------

    def _call(self, op: str, value: object, tid: object = None):
        # answered before this returns, so it never joins ``_pending``
        request = self.server.call(op, value, tid,
                                   session_id=self.session_id)
        if op in WRITE_OPS:
            self._wrote(request.shard)
        return request.future.result()

    def get(self, value: object):
        """The TID stored for *value*, or None."""
        return self._call("lookup", value)

    def insert(self, value: object, tid: object) -> None:
        self._call("insert", value, tid)

    def delete(self, value: object) -> None:
        self._call("delete", value)

    def update(self, value: object, tid: object) -> bool:
        """Upsert; True when an existing entry was replaced.  Runs on the
        server as one tree call that rewrites a present key's TID in
        place, so a crash leaves the key with its committed TID or this
        one, never missing."""
        return bool(self._call("update", value, tid))

    def range(self, lo=None, hi=None) -> list[tuple[object, object]]:
        """Globally ordered scan (runs on the owner threads, FIFO with
        this session's earlier writes)."""
        self.flush()
        return self.server.range_scan(lo, hi)

    # -- commitment --------------------------------------------------------

    def flush(self) -> None:
        """Wait for every pipelined operation to resolve.  Per-op errors
        stay on their futures (already observed or observable by the
        caller); flush only guarantees the pipeline is empty."""
        for future in self._pending:
            future.wait()
        self._pending.clear()

    def dirty_shards(self) -> frozenset[int]:
        return frozenset(self._dirty)

    def commit(self) -> int:
        """Make this session's writes durable; returns the covering
        group sync window ordinal (0 when the session has nothing
        dirty, so there is nothing to wait for).

        On :class:`~repro.serve.errors.CommitFailed` the dirty-shard set
        is *kept* so the commit can be retried after recovery; on
        success it resets.  Either way the session stops being an open
        writer the moment its commit is submitted: a retry is a plain
        pending commit, and nobody waits for this session again until
        it writes again.
        """
        self.flush()
        if not self._dirty:
            return 0
        closes_writer, self._open = self._open, False
        window = self.server.commit(sorted(self._dirty),
                                    session_id=self.session_id,
                                    closes_writer=closes_writer)
        self._dirty.clear()
        return window
