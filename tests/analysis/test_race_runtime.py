"""Runtime lock-order / lockset checker: cycle detection on the
acquisition-order graph, lockset checks at the mutation points, and the
clean-protocol baseline (no findings on the real code)."""

# the mutant trees deliberately violate the latch protocol (that is
# the point); bare acquire/release shapes feed the order graph (R014
# is the path-sensitive form of the same latch discipline)
# lint: disable=R006,R014

import threading

import pytest

from repro import StorageEngine, TREE_CLASSES
from repro.core.concurrency import ConcurrentTree, LatchManager, SplitLock
from repro.analysis.races import runtime
from repro.analysis.races.runtime import (
    Finding,
    LockOrderGraph,
    RaceCheckError,
)

from ..conftest import tid_for


@pytest.fixture
def checked():
    """Install the checker with a clean findings slate; uninstall after
    (nesting-safe, so it composes with the REPRO_SANITIZE fixture)."""
    with runtime.race_checked():
        before = len(runtime.findings())
        yield lambda: runtime.findings()[before:]


# ---------------------------------------------------------------------------
# the graph itself
# ---------------------------------------------------------------------------

def test_graph_no_cycle_on_consistent_order():
    graph = LockOrderGraph()
    a, b, c = ("latch", 1, 0), ("latch", 2, 0), ("split", 3)
    assert graph.observe(a, b) is None
    assert graph.observe(b, c) is None
    assert graph.observe(a, c) is None


def test_graph_detects_two_lock_inversion():
    graph = LockOrderGraph()
    a, b = ("latch", 1, 0), ("latch", 2, 0)
    assert graph.observe(a, b) is None
    cycle = graph.observe(b, a)
    assert cycle is not None and cycle[0] == b and cycle[-1] == b


def test_graph_detects_three_lock_rotation():
    graph = LockOrderGraph()
    a, b, c = ("s", 1), ("s", 2), ("s", 3)
    assert graph.observe(a, b) is None
    assert graph.observe(b, c) is None
    cycle = graph.observe(c, a)
    assert cycle is not None and set(cycle) == {a, b, c}


def test_graph_ignores_reacquisition_of_same_key():
    graph = LockOrderGraph()
    a = ("latch", 1, 0)
    assert graph.observe(a, a) is None
    assert graph.edges() == {}


# ---------------------------------------------------------------------------
# cycle detection through the observer seam
# ---------------------------------------------------------------------------

def _run_thread(fn):
    t = threading.Thread(target=fn)
    t.start()
    t.join(timeout=5)
    assert not t.is_alive()


def test_opposite_latch_orders_reported(checked):
    """Two latch managers acquired in opposite orders by two threads —
    neither run blocks, but the deadlock-capable order inversion must be
    reported as a (non-fatal) lock-order-cycle finding."""
    first, second = LatchManager(), LatchManager()

    def forward():
        first.acquire_write(1, max_held=2)
        second.acquire_write(1, max_held=2)
        second.release(1)
        first.release(1)

    def backward():
        second.acquire_write(1, max_held=2)
        first.acquire_write(1, max_held=2)
        first.release(1)
        second.release(1)

    _run_thread(forward)
    _run_thread(backward)
    kinds = [f.kind for f in checked()]
    assert "lock-order-cycle" in kinds


def test_split_before_latch_order_is_cycle_free(checked):
    """The paper's order — split lock, then write latch — from any number
    of threads never closes a cycle."""
    lock, latches = SplitLock(), LatchManager()

    def correct():
        lock.acquire(latches)
        latches.acquire_write(0)
        latches.release(0)
        lock.release()

    for _ in range(3):
        _run_thread(correct)
    assert checked() == []


# ---------------------------------------------------------------------------
# lockset checks at the mutation points
# ---------------------------------------------------------------------------

class _SplitLockFreeTree(ConcurrentTree):
    """Mutant: writes under the write latch but never takes the split
    lock — the runtime analogue of the R006 mutation self-test."""

    def insert(self, value, tid):
        self.latches.acquire_write(0)
        try:
            self.tree.insert(value, tid)
        finally:
            self.latches.release(0)


class _LatchFreeTree(ConcurrentTree):
    """Mutant: writes with no latch at all."""

    def insert(self, value, tid):
        self.tree.insert(value, tid)


class _MutatingReaderTree(ConcurrentTree):
    """Mutant: mutates the tree from under the shared read latch."""

    def lookup(self, value):
        self.latches.acquire_read(0)
        try:
            self.tree.insert(value, tid_for(value))
            return self.tree.lookup(value)
        finally:
            self.latches.release(0)


def _fresh_tree(cls, kind="shadow"):
    engine = StorageEngine.create(page_size=512, seed=3)
    inner = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    return engine, cls(inner)


def test_split_without_split_lock_caught(checked):
    engine, tree = _fresh_tree(_SplitLockFreeTree)
    with pytest.raises(RaceCheckError, match="split lock"):
        # enough inserts to force a split; non-splitting inserts pass
        for i in range(200):
            tree.insert(i, tid_for(i))
    assert any(f.kind == "split-without-split-lock" for f in checked())


def test_mutation_without_write_latch_caught(checked):
    engine, tree = _fresh_tree(_LatchFreeTree)
    with pytest.raises(RaceCheckError, match="no write latch"):
        tree.insert(1, tid_for(1))
    assert any(f.kind == "mutation-without-write-latch"
               for f in checked())


def test_mutation_under_read_latch_caught(checked):
    engine, tree = _fresh_tree(_MutatingReaderTree)
    with pytest.raises(RaceCheckError, match="read"):
        tree.lookup(7)
    assert any(f.kind == "mutation-under-read-latch" for f in checked())


def test_correct_protocol_produces_no_findings(checked):
    """The real ConcurrentTree, including splits and deletes, is clean
    under the checker."""
    engine, tree = _fresh_tree(ConcurrentTree)
    for i in range(200):
        tree.insert(i, tid_for(i))
    for i in range(0, 200, 5):
        tree.delete(i)
    assert tree.lookup(1) is not None
    engine.sync()
    assert checked() == []


def test_findings_emitted_as_trace_events(checked):
    from repro.obs import scoped_trace

    engine, tree = _fresh_tree(_LatchFreeTree)
    with scoped_trace() as log:
        with pytest.raises(RaceCheckError):
            tree.insert(1, tid_for(1))
        events = log.events("race_finding")
    assert events and events[0].detail["kind"] == "mutation-without-write-latch"


def test_install_uninstall_restore_patches():
    from repro.core.btree_base import BLinkTree
    from repro.storage.pagefile import PageFile

    already = runtime._installed   # e.g. the REPRO_SANITIZE fixture
    before_init = ConcurrentTree.__init__
    before_dirty = PageFile.mark_dirty
    before_split = BLinkTree.__dict__["_split_and_insert"]
    with runtime.race_checked():
        if not already:
            assert ConcurrentTree.__init__ is not before_init
            assert PageFile.mark_dirty is not before_dirty
    # nesting-safe: the pre-existing install (or the pristine state)
    # survives the block unchanged
    assert ConcurrentTree.__init__ is before_init
    assert PageFile.mark_dirty is before_dirty
    assert BLinkTree.__dict__["_split_and_insert"] is before_split


def test_finding_to_dict_round_trip():
    f = Finding("k", "msg", thread="t", detail={"page": 3})
    assert f.to_dict() == {"kind": "k", "message": "msg", "thread": "t",
                           "detail": {"page": 3}}
