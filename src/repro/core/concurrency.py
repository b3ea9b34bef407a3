"""Concurrency control (paper Section 3.6).

The paper adapts Lehman-Yao to the recoverable trees:

* readers and writers descend root-to-leaf **without lock coupling**
  (release one latch before acquiring the next); writers couple latches
  only while ascending;
* a new **split lock** per tree: split locks conflict only with split
  locks.  A writer that must split releases its write latch, acquires the
  split lock, reacquires the write latch, splits, releases the write
  latch, fixes the neighbours' peer pointers, and finally drops the split
  lock.  Because a process holds at most one (split, write) pair and
  always acquires them in that order, the protocol is deadlock-free;
* a reader **pins** a child's buffer before releasing the parent's latch;
  the allocator refuses to recycle pinned pages — implemented in
  :meth:`repro.storage.pagefile.PageFile._foreign_pins`;
* suspected link inconsistencies are re-traversed once before being
  declared genuine: a concurrent splitter always restores consistency
  before releasing its locks, so a repeatable inconsistency is real.

Two layers live here:

:class:`LatchManager` / :class:`SplitLock`
    the primitives, with instrumentation that asserts the protocol
    invariants (ordering, single-pair, conflict matrix) so tests can
    exercise the *protocol* deterministically;

:class:`ConcurrentTree`
    a thread-safe wrapper over any tree that drives the primitives for
    whole operations.  CPython's GIL means wrapping cannot demonstrate
    parallel speedups, but it does exercise real multi-threaded
    interleavings of reads against writers for the correctness tests.

Both layers expose two *hook seams* the race tooling plugs into
(:mod:`repro.analysis.races`):

* :func:`set_schedule_hook` installs a cooperative scheduler.  Every
  latch acquisition/release and every would-block wait becomes a
  *schedule point*: the hook may pause the calling thread until a
  deterministic controller grants it a turn.  Blocking waits are
  rewritten into non-blocking retries while a hook is installed, so no
  hooked thread ever parks invisibly inside a condition variable — the
  precondition for deterministic replay.
* :func:`set_race_observer` installs a lock-event observer.  It is told
  about every successful acquire and every release, with a stable lock
  key, so it can maintain the global acquisition-order graph and lockset
  state across threads.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from time import perf_counter

from ..errors import ReproError
from ..obs import get_registry, get_trace


class LatchProtocolError(ReproError):
    """A latch-ordering or conflict-matrix invariant was violated."""


# ---------------------------------------------------------------------------
# hook seams (the race tooling's attachment points)
# ---------------------------------------------------------------------------

#: Serial numbers give lock instances identities that — unlike ``id()`` —
#: are never reused, so the acquisition-order graph cannot alias two
#: managers that happened to share an address across garbage collections.
_SERIALS = itertools.count(1)

_schedule_hook = None
_race_observer = None


def set_schedule_hook(hook):
    """Install *hook* (``point(kind, **detail)``) as the cooperative
    scheduler; returns the previous hook.  ``None`` uninstalls."""
    global _schedule_hook
    previous = _schedule_hook
    _schedule_hook = hook
    return previous


def set_race_observer(observer):
    """Install *observer* (``on_acquire(key, mode)`` / ``on_release(key)``)
    for lock-order tracking; returns the previous observer."""
    global _race_observer
    previous = _race_observer
    _race_observer = observer
    return previous


def schedule_point(kind: str, **detail) -> None:
    """A potential thread switch: pauses until the installed scheduler
    (if any) grants this thread a turn.  No-op without a hook, so the
    normal-path cost is one global load and a branch."""
    hook = _schedule_hook
    if hook is not None:
        hook.point(kind, **detail)


def _observe_acquire(key: tuple, mode: str) -> None:
    observer = _race_observer
    if observer is not None:
        observer.on_acquire(key, mode)


def _observe_release(key: tuple) -> None:
    observer = _race_observer
    if observer is not None:
        observer.on_release(key)


class LatchManager:
    """Per-page read/write latches with protocol assertions.

    Latches are short-term (operation-scoped), unlike transaction locks.
    Readers share; writers are exclusive and take preference over newly
    arriving readers (so a stream of readers cannot starve a writer).
    The manager tracks, per thread, the latches held, and asserts the
    Lehman-Yao discipline:

    * descending code may hold at most one latch at a time
      ("locks are not coupled; readers always release one lock before
      acquiring the next");
    * ascending writers may couple exactly two (child + parent).
    """

    def __init__(self):
        self.serial = next(_SERIALS)
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._readers: dict[int, int] = defaultdict(int)
        self._writer: dict[int, int | None] = {}
        self._w_waiting: dict[int, int] = defaultdict(int)
        self._held: dict[int, list[tuple[int, str]]] = defaultdict(list)
        self._m_waits = get_registry().counter("latch.waits")

    def _me(self) -> int:
        return threading.get_ident()

    def _key(self, page_no: int) -> tuple:
        return ("latch", self.serial, page_no)

    def _waited(self, page_no: int, mode: str, started: float) -> None:
        get_trace().emit("latch_wait", page=page_no, mode=mode,
                         duration=perf_counter() - started)

    def _wait(self, kind: str, page_no: int) -> None:
        """Block until the conflict may have cleared.

        With a schedule hook installed the blocking wait becomes a
        cooperative retry: drop the monitor, hand the turn back to the
        controller, reacquire, re-check.  The caller's ``while`` loop
        supplies the re-check, exactly as it does for a real
        ``Condition.wait``.
        """
        hook = _schedule_hook
        if hook is not None:
            self._mutex.release()
            try:
                hook.point(kind, page=page_no, blocked=True)
            finally:
                self._mutex.acquire()
        else:
            self._cond.wait()

    def acquire_read(self, page_no: int, *, max_held: int = 1) -> None:
        schedule_point("latch_r", page=page_no)
        me = self._me()
        with self._cond:
            self._assert_capacity(me, max_held)
            own = sum(1 for p, m in self._held[me] if p == page_no)
            contended_at = None
            while (self._writer.get(page_no) not in (None, me)
                   or (self._w_waiting[page_no] and not own)):
                if contended_at is None:
                    contended_at = perf_counter()
                self._m_waits.inc()
                self._wait("latch_r_wait", page_no)
            if contended_at is not None:
                self._waited(page_no, "r", contended_at)
            self._readers[page_no] += 1
            self._held[me].append((page_no, "r"))
        _observe_acquire(self._key(page_no), "r")

    def acquire_write(self, page_no: int, *, max_held: int = 2) -> None:
        schedule_point("latch_w", page=page_no)
        me = self._me()
        with self._cond:
            self._assert_capacity(me, max_held)
            self._w_waiting[page_no] += 1
            try:
                contended_at = None
                while (self._writer.get(page_no) not in (None, me)
                       or self._reader_conflict(page_no, me)):
                    if contended_at is None:
                        contended_at = perf_counter()
                    self._m_waits.inc()
                    self._wait("latch_w_wait", page_no)
                if contended_at is not None:
                    self._waited(page_no, "w", contended_at)
            finally:
                self._w_waiting[page_no] -= 1
            self._writer[page_no] = me
            self._held[me].append((page_no, "w"))
        _observe_acquire(self._key(page_no), "w")

    def _reader_conflict(self, page_no: int, me: int) -> bool:
        own = sum(1 for p, m in self._held[me] if p == page_no and m == "r")
        return self._readers.get(page_no, 0) > own

    def release(self, page_no: int) -> None:
        me = self._me()
        with self._cond:
            held = self._held[me]
            for i in range(len(held) - 1, -1, -1):
                if held[i][0] == page_no:
                    mode = held[i][1]
                    del held[i]
                    break
            else:
                raise LatchProtocolError(
                    f"thread releases page {page_no} it does not hold")
            if mode == "r":
                self._readers[page_no] -= 1
                if not self._readers[page_no]:
                    del self._readers[page_no]
            else:
                if not any(p == page_no and m == "w" for p, m in held):
                    self._writer[page_no] = None
            self._cond.notify_all()
        _observe_release(self._key(page_no))
        schedule_point("latch_release", page=page_no)

    def release_all(self) -> None:
        for page_no, _mode in list(self._held[self._me()]):
            self.release(page_no)

    def held_by_me(self) -> list[tuple[int, str]]:
        return list(self._held[self._me()])

    def _assert_capacity(self, me: int, max_held: int) -> None:
        if len(self._held[me]) >= max_held:
            raise LatchProtocolError(
                f"thread already holds {len(self._held[me])} latches; "
                f"Lehman-Yao permits at most {max_held} here"
            )


class SplitLock:
    """The paper's split lock: conflicts only with other split locks.

    "Deadlocks are impossible since processes acquire the split lock
    before the write lock, and acquire only one such pair in the B-tree
    at a time."
    """

    def __init__(self):
        self.serial = next(_SERIALS)
        self._lock = threading.Lock()
        self._owner: int | None = None
        reg = get_registry()
        self._m_acquisitions = reg.counter("split_lock.acquisitions")
        self._m_waits = reg.counter("split_lock.waits")

    @property
    def stats_acquisitions(self) -> int:
        return self._m_acquisitions.value

    def _key(self) -> tuple:
        return ("split", self.serial)

    def acquire(self, latches: LatchManager | None = None) -> None:
        schedule_point("split_acquire")
        me = threading.get_ident()
        if self._owner == me:
            raise LatchProtocolError("split lock is not reentrant")
        if latches is not None and any(
                m == "w" for _p, m in latches.held_by_me()):
            raise LatchProtocolError(
                "split lock must be acquired before the write latch; "
                "release the write latch first (Section 3.6)"
            )
        if not self._lock.acquire(blocking=False):
            contended_at = perf_counter()
            self._m_waits.inc()
            hook = _schedule_hook
            if hook is not None:
                # cooperative retry, so the deterministic controller never
                # loses sight of a thread inside a native lock wait
                while not self._lock.acquire(blocking=False):
                    hook.point("split_wait", blocked=True)
            else:
                self._lock.acquire()
            get_trace().emit("latch_wait", mode="split",
                             duration=perf_counter() - contended_at)
        self._owner = me
        self._m_acquisitions.inc()
        _observe_acquire(self._key(), "w")

    def release(self) -> None:
        if self._owner != threading.get_ident():
            raise LatchProtocolError("split lock released by non-owner")
        self._owner = None
        self._lock.release()
        _observe_release(self._key())
        schedule_point("split_release")

    def held(self) -> bool:
        return self._owner is not None

    def held_by_me(self) -> bool:
        return self._owner == threading.get_ident()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False


#: The sentinel page number ConcurrentTree latches for whole-tree
#: operations.  Page 0 is every file's meta page, so the latch reads as
#: "the latch on the tree's root pointer".
TREE_LATCH_PAGE = 0


class ConcurrentTree:
    """Thread-safe facade over a tree.

    Readers proceed under a shared latch on :data:`TREE_LATCH_PAGE`;
    writers take the split lock and then the exclusive latch, in the
    paper's order.  The wrapper keeps the tree's own single-threaded code
    unchanged — the granularity is coarser than the paper's page
    latching, but the lock *ordering* and conflict rules are the paper's,
    so protocol tests (and the race detector) exercise the real
    discipline: split lock strictly before the write latch, never while
    holding it, and every release reachable on every exception edge.
    """

    def __init__(self, tree):
        self.tree = tree
        self.latches = LatchManager()
        self.split_lock = SplitLock()

    # -- reads -------------------------------------------------------------

    def lookup(self, value):
        self.latches.acquire_read(TREE_LATCH_PAGE)
        try:
            return self.tree.lookup(value)
        finally:
            self.latches.release(TREE_LATCH_PAGE)

    def range_scan(self, lo=None, hi=None):
        self.latches.acquire_read(TREE_LATCH_PAGE)
        try:
            return list(self.tree.range_scan(lo, hi))
        finally:
            self.latches.release(TREE_LATCH_PAGE)

    def __contains__(self, value):
        return self.lookup(value) is not None

    # -- writes -------------------------------------------------------------

    def insert(self, value, tid) -> None:
        self.split_lock.acquire(self.latches)
        try:
            self.latches.acquire_write(TREE_LATCH_PAGE)
            try:
                self.tree.insert(value, tid)
            finally:
                self.latches.release(TREE_LATCH_PAGE)
        finally:
            self.split_lock.release()

    def delete(self, value) -> None:
        self.split_lock.acquire(self.latches)
        try:
            self.latches.acquire_write(TREE_LATCH_PAGE)
            try:
                self.tree.delete(value)
            finally:
                self.latches.release(TREE_LATCH_PAGE)
        finally:
            self.split_lock.release()
