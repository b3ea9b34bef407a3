"""ROADMAP item 1, repro E: a peer-link cycle is an error, not a hang.

The widened torn windows of PR 20's differential left shadow trees whose
right-peer links led round a cycle, and ``_follow_moves``' move-right loop
followed them for ever.  What makes the links cycle is still open; this
pins down that following them terminates.  The cycle is planted by hand:
the rightmost leaf's ``right_peer`` points back at its left neighbour, with
keys that admit the move in both directions.
"""

import signal
from contextlib import contextmanager

import pytest

from repro import TREE_CLASSES, StorageEngine, TreeError
from repro.core.nodeview import NodeView

from ..conftest import tid_for

PAGE = 256
N_KEYS = 40
BEYOND = 10_000          # greater than every key: the descent must move


@contextmanager
def watchdog(seconds: float):
    """Fail the test, instead of hanging the suite, if the block runs
    longer than *seconds* (the move loop is pure Python, so the alarm is
    delivered between two of its bytecodes)."""
    def fire(_signum, _frame):
        raise AssertionError(
            f"still following move links after {seconds} s")
    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def tree_with_a_peer_cycle(kind):
    engine = StorageEngine.create(page_size=PAGE, seed=9)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    tree.insert_many((key, tid_for(key)) for key in range(N_KEYS))
    engine.sync()
    path = tree._descend(tree.codec.encode(BEYOND))
    try:
        last = path[-1]
        view = NodeView(last.buffer.data)
        assert view.right_peer == 0 and view.left_peer != 0
        # a token the neighbour's side of the link does not carry, so a
        # chain walk takes the link for broken and heals it by a descent
        view.right_peer = view.left_peer
        view.right_peer_token = view.right_peer_token + 7
        tree.file.mark_dirty(last.buffer)
    finally:
        tree._unpin_path(path)
    engine.sync()
    return tree


@pytest.mark.parametrize("kind", ["shadow", "reorg", "hybrid"])
def test_a_peer_link_cycle_raises_instead_of_hanging(kind):
    tree = tree_with_a_peer_cycle(kind)
    pins = tree.file.pool.total_pins()
    for operation in (lambda: tree.lookup(BEYOND),
                      lambda: tree.insert(BEYOND, tid_for(BEYOND)),
                      tree.walk_leaf_chain):
        with watchdog(5.0), pytest.raises(TreeError,
                                          match="move links cycle"):
            operation()
        # the error released every pin the moves and the descent held
        assert tree.file.pool.total_pins() == pins
    # within one lap more than the file has pages
    with pytest.raises(TreeError, match=rf"{tree.file.n_pages + 1} moves"):
        tree.lookup(BEYOND)
    # keys short of the cycle are served as before
    assert tree.lookup(3) == tid_for(3)
