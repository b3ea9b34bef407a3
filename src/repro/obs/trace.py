"""Structured trace of recovery-relevant events.

Where the metrics registry answers *how much*, the trace log answers
*what happened, in order*: every sync, crash, split, repair, eviction,
latch wait, and fsck finding is appended as a typed :class:`TraceEvent`
carrying the sync token in force, the file/page concerned, and (where it
makes sense) a duration.

Token semantics in traces: ``token`` is the page's or operation's sync
token *as stamped*, i.e. the global counter value at emit time for
``sync``/``split`` events and the token that triggered detection for
``repair`` events.  Comparing a repair event's token against the
surrounding sync events' tokens tells you which crash epoch the damage
came from (see DESIGN.md §5d).

The log is a fixed-capacity ring buffer — old events fall off, but
per-type running totals (:meth:`TraceLog.counts`) survive overflow, so
the stats CLI can always report "N evictions happened" even when only
the last 4096 events are retained.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: The typed event vocabulary.  :meth:`TraceLog.emit` rejects anything
#: else, so a typo'd instrumentation site fails loudly in tests.
EVENT_TYPES: frozenset[str] = frozenset({
    "sync", "crash", "split", "repair", "evict", "latch_wait",
    "fsck_finding", "race_finding",
    # sharded engine group (repro.shard): a scheduler-triggered group
    # sync window, one shard's crash inside the group, and the completion
    # (or failure) of one shard's recovery under the orchestrator
    "group_sync", "shard_crash", "shard_recovery",
    # instant restart: background-heal progress for one admitted shard
    # (periodic unit-count checkpoints, completion, or mid-heal failure)
    "heal_progress",
    # serving front-end: one group-commit barrier (window ordinal, how
    # many client commits it covered, how many it acked)
    "serve_commit",
    # partitioned WAL replay (repro.wal.parallel): one partition's redo
    # completing on its owner thread (applied/elided/out-of-order
    # counts), and the whole group replay finishing
    "wal_partition", "wal_replay",
})

DEFAULT_CAPACITY = 4096


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    seq: int
    etype: str
    file: str | None = None
    page: int | None = None
    token: int | None = None
    duration: float | None = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {"seq": self.seq, "etype": self.etype}
        for key in ("file", "page", "token", "duration"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.detail:
            out["detail"] = self.detail
        return out


class TraceLog:
    """Ring buffer of :class:`TraceEvent` with per-type running totals."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self._lock = threading.Lock()
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        # a defaultdict, not a Counter: Counter fills a missing key from
        # Python code, so the first event of a type in the process would
        # add a call to whatever a profiler is counting around it
        self._counts: defaultdict[str, int] = defaultdict(int)
        self._seq = 0

    def emit(self, etype: str, *, file: str | None = None,
             page: int | None = None, token: int | None = None,
             duration: float | None = None, **detail) -> TraceEvent:
        if etype not in EVENT_TYPES:
            raise ValueError(
                f"unknown trace event type {etype!r}; "
                f"expected one of {sorted(EVENT_TYPES)}")
        with self._lock:
            self._seq += 1
            event = TraceEvent(self._seq, etype, file=file, page=page,
                               token=token, duration=duration, detail=detail)
            self._events.append(event)
            self._counts[etype] += 1
        return event

    def events(self, etype: str | None = None) -> list[TraceEvent]:
        """Retained events, oldest first, optionally filtered by type."""
        with self._lock:
            retained = list(self._events)
        if etype is None:
            return retained
        return [e for e in retained if e.etype == etype]

    def counts(self) -> dict[str, int]:
        """Running per-type totals (survive ring-buffer overflow)."""
        with self._lock:
            return dict(self._counts)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._counts.clear()


# ---------------------------------------------------------------------------
# process-wide current trace log
# ---------------------------------------------------------------------------

_current = TraceLog()
_current_lock = threading.Lock()


def get_trace() -> TraceLog:
    """The process-wide trace log instrumentation emits into."""
    return _current


def set_trace(log: TraceLog) -> TraceLog:
    """Swap the current trace log; returns the previous one."""
    global _current
    with _current_lock:
        previous = _current
        _current = log
    return previous


@contextmanager
def scoped_trace(capacity: int = DEFAULT_CAPACITY) -> Iterator[TraceLog]:
    """A fresh trace log for the block; previous restored on exit."""
    log = TraceLog(capacity)
    previous = set_trace(log)
    try:
        yield log
    finally:
        set_trace(previous)
