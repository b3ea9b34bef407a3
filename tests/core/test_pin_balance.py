"""Regression tests for the exception-window pin leaks the flow lint
(R011/R013) surfaced: a failure injected into the middle of a descent,
and a crash-recovery repair, must both leave the buffer pool with zero
outstanding pins."""

import pytest

from repro import TID, TREE_CLASSES, StorageEngine
from repro.core.concurrency import set_schedule_hook

from ..recovery.helpers import build_to_split, crash_keeping

PAGE = 512


def tid_for(i: int) -> TID:
    return TID(1 + (i >> 8), i & 0xFF)


class _FaultOnPinChild:
    """Scheduler hook that raises right after ``_descend`` pins a child
    — inside the window the exception guard has to cover."""

    def __init__(self, after: int = 0):
        self.countdown = after

    def point(self, kind, **detail):
        if kind != "pin_child":
            return
        if self.countdown == 0:
            raise RuntimeError("injected fault after child pin")
        self.countdown -= 1


@pytest.mark.parametrize("kind", sorted(TREE_CLASSES))
def test_descend_fault_releases_every_pin(kind):
    engine = StorageEngine.create(page_size=PAGE, seed=3)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    for i in range(300):
        tree.insert(i, tid_for(i))
    assert tree.height >= 2
    assert tree.file.pool.total_pins() == 0

    previous = set_schedule_hook(_FaultOnPinChild())
    try:
        with pytest.raises(RuntimeError, match="injected fault"):
            tree.lookup(0)
    finally:
        set_schedule_hook(previous)
    assert tree.file.pool.total_pins() == 0

    # the tree is still fully usable after the aborted descent
    assert tree.lookup(0) is not None
    tree.insert(10_000, tid_for(10_000))
    assert tree.lookup(10_000) is not None
    assert tree.file.pool.total_pins() == 0


@pytest.mark.parametrize("keep", ["parent", "pa"])
def test_reorg_recovery_repair_leaves_no_pins(keep):
    """The lost-child repair path (``_source_parent_entry`` and friends)
    takes extra pins on the parent and source pages; after recovery every
    one of them must be back."""
    engine, tree, committed, _, info = build_to_split("reorg")
    assert info["parent"] is not None
    crash_keeping(engine, tree, tree.file.name, {info[keep]})

    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES["reorg"].open(engine2, "ix")
    missing = [k for k in committed if tree2.lookup(k) is None]
    assert not missing
    assert tree2.file.pool.total_pins() == 0
