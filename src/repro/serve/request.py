"""Request and future primitives shared by the serving pipeline.

A client's operation travels as a :class:`Request` — op name, value,
routed shard, and an :class:`OpFuture` the shard's owner thread resolves
exactly once.  Commits travel separately as :class:`CommitRequest`
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
    """

    __slots__ = ("_lock", "_resolved", "_result", "_error")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()
        self._resolved = False
        self._result: object = None
        self._error: BaseException | None = None

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
        """Block until resolved (errors included); True when resolved."""
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


@dataclass
class Request:
    """One routed operation in flight through the dispatch pipeline."""

    op: str                     # one of OPS
    value: object
    tid: object = None          # insert/update payload
    shard: int = -1             # routed shard index
    session_id: int = -1
    future: OpFuture = field(default_factory=OpFuture)
    submitted_at: float = field(default_factory=perf_counter)


@dataclass
class CommitRequest:
    """One client's commit point awaiting a covering group sync."""

    shards: frozenset[int]      # shards dirtied since the last commit
    session_id: int = -1
    future: OpFuture = field(default_factory=OpFuture)
    submitted_at: float = field(default_factory=perf_counter)
