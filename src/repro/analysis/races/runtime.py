"""Runtime lock-order and lockset checker for the latch protocol.

The static rules (R006, R007, R014) see the source; this module sees the
*execution*.  :func:`install` attaches an observer to the
:func:`repro.core.concurrency.set_race_observer` seam and patches the
mutation points of the storage stack, giving two families of checks:

**lock-order graph** (potential deadlocks that never fired)
    every (held → acquired) pair across every thread becomes an edge in
    one global graph; a cycle means two lock instances were taken in
    opposite orders somewhere in the run — the schedule that deadlocks
    exists even if this run never hit it.  Cycles are reported as
    non-fatal findings: the run that revealed the order inversion is
    itself fine.

**lockset checks** (protocol violations that did fire)
    on any file *governed* by a
    :class:`~repro.core.concurrency.ConcurrentTree` (registered at
    construction, so mutant subclasses that skip the protocol are still
    governed),

    * a page marked dirty while the thread holds only a shared latch —
      or no latch at all — on the governing tree is a mutation the latch
      protocol never licensed;
    * a page split (B-link ``_split_and_insert``, hash ``_split_bucket``)
      without owning the tree's split lock breaks the deadlock-freedom
      argument of Section 3.6.

    The checks read the *actual* lockset, not the entry point taken, so
    a subclass that overrides ``insert`` without taking the locks is
    caught exactly like an inline mutation.

    These raise :class:`RaceCheckError` (an ``AssertionError`` — a bug in
    the code under test, not a storage condition callers handle) in
    addition to being recorded.

Every finding is appended to a global list (:func:`findings`) and
emitted as a ``race_finding`` trace event, so the explorer and the
stats tooling both see them.  Enable for a pytest run with
``REPRO_SANITIZE=1`` (tests/conftest.py installs this checker alongside
the storage sanitizer) or locally with ``with race_checked():``.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ...obs import get_trace


class RaceCheckError(AssertionError):
    """A latch-protocol violation observed at runtime."""


@dataclass(frozen=True)
class Finding:
    """One race-detector finding (fatal or advisory)."""

    kind: str
    message: str
    thread: str = ""
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "message": self.message}
        if self.thread:
            out["thread"] = self.thread
        if self.detail:
            out["detail"] = self.detail
        return out


_findings: list[Finding] = []
_findings_lock = threading.Lock()


def findings() -> list[Finding]:
    """Findings recorded since the last :func:`clear_findings`."""
    with _findings_lock:
        return list(_findings)


def clear_findings() -> None:
    with _findings_lock:
        _findings.clear()


def _report(kind: str, message: str, *, fatal: bool, **detail) -> None:
    finding = Finding(kind, message,
                      thread=threading.current_thread().name,
                      detail=detail)
    with _findings_lock:
        _findings.append(finding)
    get_trace().emit("race_finding", kind=kind, message=message, **detail)
    if fatal:
        raise RaceCheckError(message)


# ---------------------------------------------------------------------------
# lock-order graph
# ---------------------------------------------------------------------------

class LockOrderGraph:
    """Global acquisition-order graph with on-insert cycle detection.

    Nodes are the stable lock keys :mod:`repro.core.concurrency` hands
    the observer (serial-numbered, so they never alias across garbage
    collections).  An edge ``a → b`` records "some thread acquired *b*
    while holding *a*".  A cycle is a potential deadlock: two threads
    following the recorded orders can block each other forever.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._edges: dict[tuple, set[tuple]] = {}

    def observe(self, held: tuple, acquired: tuple) -> list[tuple] | None:
        """Record the edge; returns the cycle (as a key path ending where
        it started) if this edge closed one, else ``None``."""
        if held == acquired:
            return None  # re-acquisition of the same lock is not an order
        with self._lock:
            successors = self._edges.setdefault(held, set())
            if acquired in successors:
                return None  # already recorded (and already checked)
            successors.add(acquired)
            path = self._find_path(acquired, held)
        if path is None:
            return None
        return [held, *path]

    def _find_path(self, src: tuple, dst: tuple) -> list[tuple] | None:
        """DFS path src → dst through recorded edges (called with the
        graph lock held)."""
        stack = [(src, [src])]
        seen = {src}
        while stack:
            node, path = stack.pop()
            if node == dst:
                return path
            for nxt in self._edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def edges(self) -> dict[tuple, set[tuple]]:
        with self._lock:
            return {k: set(v) for k, v in self._edges.items()}


class LockOrderObserver:
    """The :func:`set_race_observer` implementation: per-thread locksets
    feeding one shared :class:`LockOrderGraph`."""

    def __init__(self, graph: LockOrderGraph | None = None):
        self.graph = graph if graph is not None else LockOrderGraph()
        self._lock = threading.Lock()
        self._held: dict[int, list[tuple[tuple, str]]] = {}

    def on_acquire(self, key: tuple, mode: str) -> None:
        me = threading.get_ident()
        with self._lock:
            held = list(self._held.get(me, ()))
            self._held.setdefault(me, []).append((key, mode))
        for prior, _mode in held:
            cycle = self.graph.observe(prior, key)
            if cycle is not None:
                _report(
                    "lock-order-cycle",
                    "lock acquisition orders form a cycle — a schedule "
                    "exists in which these threads deadlock: "
                    + " -> ".join(repr(k) for k in cycle),
                    fatal=False,
                    cycle=[list(k) for k in cycle],
                )

    def on_release(self, key: tuple) -> None:
        me = threading.get_ident()
        with self._lock:
            held = self._held.get(me)
            if not held:
                return
            for i in range(len(held) - 1, -1, -1):
                if held[i][0] == key:
                    del held[i]
                    break

    def held_by(self, ident: int) -> list[tuple[tuple, str]]:
        with self._lock:
            return list(self._held.get(ident, ()))


# ---------------------------------------------------------------------------
# lockset checks on the storage stack
# ---------------------------------------------------------------------------

#: files governed by a ConcurrentTree, keyed by ``id(file)`` with an
#: identity re-check at lookup (weak values, so a dead tree's entry
#: vanishes and an id() reuse can never alias to the wrong tree)
_GOVERNED: "weakref.WeakValueDictionary[int, object]" = \
    weakref.WeakValueDictionary()


def _governing_tree(file) -> object | None:
    """The ConcurrentTree governing *file*, if any."""
    ctree = _GOVERNED.get(id(file))
    if ctree is not None and getattr(ctree.tree, "file", None) is file:
        return ctree
    return None


def _registering_init(self, tree):
    _saved["ConcurrentTree.__init__"](self, tree)
    file = getattr(tree, "file", None)
    if file is not None:
        _GOVERNED[id(file)] = self


def _checked_mark_dirty(self, buf):
    ctree = _governing_tree(self)
    if ctree is not None:
        modes = {m for _p, m in ctree.latches.held_by_me()}
        if "w" not in modes:
            if "r" in modes:
                _report(
                    "mutation-under-read-latch",
                    f"page {buf.page_no} of {self.name!r} marked dirty "
                    f"while this thread holds only a shared latch on the "
                    f"governing tree — writers racing this mutation see a "
                    f"torn page (Section 3.6)",
                    fatal=True, page=buf.page_no,
                )
            else:
                _report(
                    "mutation-without-write-latch",
                    f"page {buf.page_no} of {self.name!r} marked dirty "
                    f"with no write latch held on the governing tree "
                    f"(Section 3.6)",
                    fatal=True, page=buf.page_no,
                )
    return _saved["PageFile.mark_dirty"](self, buf)


def _checked_split(qualname: str, original):
    def wrapper(self, *args, **kwargs):
        ctree = _governing_tree(getattr(self, "file", None))
        if ctree is not None and ctree.tree is self \
                and not ctree.split_lock.held_by_me():
            _report(
                "split-without-split-lock",
                f"{qualname} ran without the tree's split lock — "
                f"concurrent splitters may deadlock or interleave page "
                f"allocation (Section 3.6)",
                fatal=True,
            )
        return original(self, *args, **kwargs)

    wrapper.__name__ = original.__name__
    wrapper.__doc__ = original.__doc__
    return wrapper


# ---------------------------------------------------------------------------
# install / uninstall
# ---------------------------------------------------------------------------

_installed = False
_saved: dict[str, object] = {}
_observer: LockOrderObserver | None = None


def _split_defining_classes():
    """Every class in the B-link hierarchy that defines its own
    ``_split_and_insert`` (subclasses override the base's)."""
    from ...core import normal, reorg, shadow, hybrid  # noqa: F401
    from ...core.btree_base import BLinkTree

    classes = [BLinkTree]
    stack = list(BLinkTree.__subclasses__())
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    return [cls for cls in classes if "_split_and_insert" in cls.__dict__]


def graph() -> LockOrderGraph | None:
    """The installed observer's lock-order graph (None when not
    installed)."""
    return _observer.graph if _observer is not None else None


def install() -> None:
    """Attach the observer and patch the mutation points (idempotent)."""
    global _installed, _observer
    if _installed:
        return
    from ...core import concurrency
    from ...hash.extendible import ExtendibleHashIndex
    from ...storage.pagefile import PageFile

    _observer = LockOrderObserver()
    _saved["race_observer"] = concurrency.set_race_observer(_observer)

    _saved["ConcurrentTree.__init__"] = concurrency.ConcurrentTree.__init__
    concurrency.ConcurrentTree.__init__ = _registering_init

    _saved["PageFile.mark_dirty"] = PageFile.mark_dirty
    PageFile.mark_dirty = _checked_mark_dirty

    for cls in _split_defining_classes():
        key = f"{cls.__qualname__}._split_and_insert"
        _saved[key] = cls.__dict__["_split_and_insert"]
        cls._split_and_insert = _checked_split(key, _saved[key])
    _saved["ExtendibleHashIndex._split_bucket"] = \
        ExtendibleHashIndex._split_bucket
    ExtendibleHashIndex._split_bucket = _checked_split(
        "ExtendibleHashIndex._split_bucket",
        ExtendibleHashIndex._split_bucket)

    _installed = True


def uninstall() -> None:
    """Restore every patched attribute (idempotent)."""
    global _installed, _observer
    if not _installed:
        return
    from ...core import concurrency
    from ...hash.extendible import ExtendibleHashIndex
    from ...storage.pagefile import PageFile

    concurrency.set_race_observer(_saved.pop("race_observer"))
    concurrency.ConcurrentTree.__init__ = \
        _saved.pop("ConcurrentTree.__init__")
    PageFile.mark_dirty = _saved.pop("PageFile.mark_dirty")
    for cls in _split_defining_classes():
        key = f"{cls.__qualname__}._split_and_insert"
        if key in _saved:
            cls._split_and_insert = _saved.pop(key)
    ExtendibleHashIndex._split_bucket = \
        _saved.pop("ExtendibleHashIndex._split_bucket")
    _observer = None
    _installed = False


@contextmanager
def race_checked() -> Iterator[None]:
    """``with race_checked():`` — install for the duration of a block.

    Nesting-safe: if the checker was already installed (e.g. by the
    ``REPRO_SANITIZE=1`` test fixture), leaving the block keeps it so.
    """
    was_installed = _installed
    install()
    try:
        yield
    finally:
        if not was_installed:
            uninstall()
