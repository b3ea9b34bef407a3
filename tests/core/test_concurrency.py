"""Concurrency control: latch protocol, split lock, threaded smoke tests
(paper Section 3.6)."""

# latch-primitive unit tests: bare acquire/release sequences (no
# try/finally) and blocking calls under latches are the protocol
# shapes being tested, not production descent code (R014 is the
# path-sensitive form of the same latch discipline)
# lint: disable=R014

import threading

import pytest

from repro import StorageEngine, TID, TREE_CLASSES
from repro.core.concurrency import (
    ConcurrentTree,
    LatchManager,
    LatchProtocolError,
    SplitLock,
)

from ..conftest import tid_for


# -- latch manager -----------------------------------------------------------

def test_read_latches_shared():
    latches = LatchManager()
    latches.acquire_read(1)
    latches.release(1)
    # two readers from different threads share
    acquired = []

    def reader():
        latches.acquire_read(1)
        acquired.append(True)
        latches.release(1)

    latches.acquire_read(1)
    t = threading.Thread(target=reader)
    t.start()
    t.join(timeout=2)
    assert acquired == [True]
    latches.release(1)


def test_writer_excludes_reader():
    latches = LatchManager()
    latches.acquire_write(1)
    progressed = []

    def reader():
        latches.acquire_read(1)
        progressed.append(True)
        latches.release(1)

    t = threading.Thread(target=reader)
    t.start()
    t.join(timeout=0.1)
    assert progressed == []           # blocked behind the writer
    latches.release(1)
    t.join(timeout=2)
    assert progressed == [True]


def test_release_unheld_rejected():
    latches = LatchManager()
    with pytest.raises(LatchProtocolError):
        latches.release(5)


def test_descent_no_coupling_enforced():
    """Lehman-Yao descent holds at most one latch: acquiring a second with
    max_held=1 is a protocol violation."""
    latches = LatchManager()
    latches.acquire_read(1, max_held=1)
    with pytest.raises(LatchProtocolError):
        latches.acquire_read(2, max_held=1)
    latches.release(1)
    latches.acquire_read(2, max_held=1)
    latches.release(2)


def test_ascending_coupling_allows_two():
    latches = LatchManager()
    latches.acquire_write(1, max_held=2)
    latches.acquire_write(2, max_held=2)
    with pytest.raises(LatchProtocolError):
        latches.acquire_write(3, max_held=2)
    latches.release_all()
    assert latches.held_by_me() == []


# -- split lock -----------------------------------------------------------------

def test_split_lock_conflicts_only_with_split_lock():
    lock = SplitLock()
    latches = LatchManager()
    lock.acquire(latches)
    # readers/writers of other pages proceed while the split lock is held
    latches.acquire_read(9)
    latches.release(9)
    lock.release()


def test_split_lock_before_write_latch_ordering():
    """'processes acquire the split lock before the write lock' — taking
    it the other way round is a protocol violation."""
    lock = SplitLock()
    latches = LatchManager()
    latches.acquire_write(1)
    with pytest.raises(LatchProtocolError):
        lock.acquire(latches)
    latches.release(1)
    lock.acquire(latches)     # correct order
    latches.acquire_write(1)
    latches.release(1)
    lock.release()


def test_split_lock_not_reentrant():
    lock = SplitLock()
    with lock:
        with pytest.raises(LatchProtocolError):
            lock.acquire()


def test_split_lock_release_by_non_owner_rejected():
    lock = SplitLock()
    lock.acquire()
    errors = []

    def interloper():
        try:
            lock.release()
        except LatchProtocolError as exc:
            errors.append(exc)

    t = threading.Thread(target=interloper)
    t.start()
    t.join(timeout=2)
    assert errors
    lock.release()


def test_split_locks_serialize_each_other():
    lock = SplitLock()
    order = []

    def worker(name):
        lock.acquire()
        order.append((name, "in"))
        order.append((name, "out"))
        lock.release()

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    # critical sections never interleave
    for i in range(0, len(order), 2):
        assert order[i][0] == order[i + 1][0]
    assert lock.stats_acquisitions == 4


# -- threaded trees -----------------------------------------------------------

@pytest.mark.parametrize("kind", ["normal", "shadow", "reorg", "hybrid"])
def test_concurrent_readers_and_writer(kind):
    engine = StorageEngine.create(page_size=512, seed=5)
    inner = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    tree = ConcurrentTree(inner)
    for i in range(0, 1000, 2):
        tree.insert(i, tid_for(i))
    engine.sync()

    stop = threading.Event()
    read_errors = []

    def reader():
        probe = 0
        while not stop.is_set():
            found = tree.lookup(probe)
            if probe % 2 == 0 and probe < 1000 and found is None:
                read_errors.append(probe)
                return
            probe = (probe + 2) % 1000

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for t in readers:
        t.start()
    # writer inserts the odd keys while readers hammer the evens
    for i in range(1, 1000, 2):
        tree.insert(i, tid_for(i))
    stop.set()
    for t in readers:
        t.join(timeout=5)
    assert read_errors == []
    engine.sync()
    assert len(inner.check()) == 1000


def test_concurrent_wrapper_scan_and_delete():
    engine = StorageEngine.create(page_size=512, seed=5)
    inner = TREE_CLASSES["shadow"].create(engine, "ix", codec="uint32")
    tree = ConcurrentTree(inner)
    for i in range(500):
        tree.insert(i, tid_for(i))
    engine.sync()
    results = []

    def scanner():
        results.append(tree.range_scan())

    t = threading.Thread(target=scanner)
    t.start()
    for i in range(0, 500, 5):
        tree.delete(i)
    t.join(timeout=5)
    assert results and len(results[0]) in range(400, 501)
    vals = [v for v, _ in results[0]]
    assert vals == sorted(vals)
