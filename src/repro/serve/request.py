"""Request and future primitives shared by the serving pipeline.

A client's operation travels as a :class:`Request` — op name, value,
routed shard, and an :class:`OpFuture` resolved exactly once by the
thread that runs it (the shard's owner, or a caller running on the idle
shard — a synchronous caller, or a client that waited on the request
and drained the shard itself).  Commits travel separately as :class:`CommitRequest`
objects carrying the set of shards whose durability the ack must cover.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter

from .errors import RequestTimeout

#: Default bound on any blocking wait in the serving layer.  Generous —
#: it exists to turn a wedged pipeline into a typed error, not to pace
#: normal traffic.
DEFAULT_WAIT_SECONDS = 60.0

#: Operations a session may submit to the dispatch pipeline.
OPS = ("lookup", "insert", "delete", "update")

#: The subset of OPS that dirties the routed shard (commit must cover).
WRITE_OPS = ("insert", "delete", "update")


class OpFuture:
    """One-shot result slot resolved by a shard owner thread.

    The reply crosses threads on one lock: it is taken at construction
    and released exactly once, by the producer, after the slot and the
    resolved flag are written.  A waiter acquires it and hands it
    straight back, so any number of waiters, and repeated waits, all
    get through; ``done()`` reads the flag, not the lock, so it never
    flickers while a waiter holds the lock for that instant.

    A future may carry a *helper*: a one-shot callable, given the
    future, that the first wait finding it unresolved runs before it
    blocks — the serving layer's way to let a waiter run its own
    request when the shard is idle (``Server._help``).
    """

    __slots__ = ("_lock", "_resolved", "_result", "_error", "helper")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()
        self._resolved = False
        self._result: object = None
        self._error: BaseException | None = None
        #: run once, on the waiting thread, by the first unresolved wait
        self.helper = None

    # -- producer side (resolved exactly once) -------------------------
    #
    # Safe-publication ordering: exactly one producer writes the slot
    # and the flag, then releases the lock; consumers acquire it (or
    # see the flag) before reading, so the release is the
    # happens-before edge.

    def set_result(self, value: object) -> None:
        self._result = value    # lint: disable=R016
        self._resolved = True   # lint: disable=R016
        self._lock.release()

    def set_error(self, error: BaseException) -> None:
        self._error = error     # lint: disable=R016
        self._resolved = True   # lint: disable=R016
        self._lock.release()

    # -- consumer side --------------------------------------------------

    def done(self) -> bool:
        return self._resolved

    def wait(self, timeout: float = DEFAULT_WAIT_SECONDS) -> bool:
        """Block until resolved (errors included); True when resolved.
        Runs the helper first, if one is still installed."""
        if self._resolved:
            return True
        helper, self.helper = self.helper, None
        if helper is not None:
            helper(self)
            if self._resolved:
                return True
        if not self._lock.acquire(timeout=timeout):
            return False
        self._lock.release()
        return True

    def result(self, timeout: float = DEFAULT_WAIT_SECONDS) -> object:
        """The operation's result; re-raises the operation's error."""
        if not self.wait(timeout):
            raise RequestTimeout(
                f"request did not resolve within {timeout:.0f}s")
        if self._error is not None:
            raise self._error
        return self._result

    def error(self) -> BaseException | None:
        """The stored error without raising (None while unresolved/ok)."""
        return self._error


class Request:
    """One routed operation in flight through the dispatch pipeline.

    Slotted: one is built per served call.  ``submitted_at`` and
    ``perf_rid`` are for a span recorder: when the request was built,
    and the request id it tags the request with (None when nothing
    traces)."""

    __slots__ = ("op", "value", "tid", "shard", "session_id", "future",
                 "submitted_at", "perf_rid")

    def __init__(self, op: str, value: object, tid: object = None,
                 shard: int = -1, session_id: int = -1) -> None:
        self.op = op                # one of OPS
        self.value = value
        self.tid = tid              # insert/update payload
        self.shard = shard          # routed shard index
        self.session_id = session_id
        self.future = OpFuture()
        self.submitted_at = perf_counter()
        self.perf_rid: int | None = None


@dataclass
class CommitRequest:
    """One client's commit point awaiting a covering group sync."""

    shards: frozenset[int]      # shards dirtied since the last commit
    session_id: int = -1
    future: OpFuture = field(default_factory=OpFuture)
    submitted_at: float = field(default_factory=perf_counter)
