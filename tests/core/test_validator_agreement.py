"""One validator: ``verify`` raises iff ``findings`` holds a fault.

``check()`` / ``verify()`` raise on the first warn- or error-severity
finding of the tree's validator walk, and ``findings()`` collects every
finding of the same walk, so under the same relaxations the two must
agree: ``verify`` raises exactly when ``findings`` holds a warn or an
error, with the text of the first one, and otherwise counts the keys
``findings`` counts.  Checked over the literal crash windows in the
repository, before and after repair, and over the planted-corruption
matrix.
"""

import pytest

from repro import TREE_CLASSES, StorageEngine
from repro.errors import TreeError

from ..conftest import ALL_KINDS, tid_for
from ..recovery import test_repro_g as repro_g
from ..recovery.test_repro_i import crash_window as crash_window_i
from ..tools.test_fsck import crashed_shadow_tree
from .test_check_rejects import CASES, build, outcome, reachable

#: ``verify`` keyword arguments -> the ``findings`` argument that relaxes
#: the walk the same way
RELAXATIONS = [({}, True),
               ({"strict_tokens": False, "require_peer_chain": False}, False)]


def assert_agree(tree):
    for relax, check_peers in RELAXATIONS:
        verified = outcome(lambda: tree.verify(**relax))
        found = outcome(lambda: tree.findings(check_peers=check_peers))
        if found[0] != "returned":
            assert verified == found
            continue
        faults = [f for f in found[1] if f.severity != "info"]
        if faults:
            assert verified == (TreeError, faults[0].message)
        else:
            assert verified == ("returned", found[1].keys)


G_WINDOWS = {
    "g-regenerated-page": (range(119, 19, -1), range(19, -1, -1), 7, False),
    "g-twin-move-right": (range(100), range(100, 120), 15, False),
    "redone-split-cut-leaf": (range(0, 800, 4),
                              [k for k in range(300, 500) if k % 4], 43,
                              True),
    "redone-split-durable-page": (range(0, 400, 4),
                                  [k for k in range(400) if k % 4], 4,
                                  True),
}


def assert_agree_through_repair(kind, engine, committed):
    """Agreement on the reopened tree, after its first-use repairs, and
    after new inserts."""
    engine = StorageEngine.reopen_after_crash(engine)
    tree = TREE_CLASSES[kind].open(engine, "ix")
    assert_agree(tree)
    tree.drive_repairs()
    assert_agree(tree)
    for key in range(10_000, 10_060):
        tree.insert(key, tid_for(key))
    engine.sync()
    assert_agree(tree)
    assert committed <= {int.from_bytes(k, "big") for k, _ in tree.check(
        strict_tokens=False, require_peer_chain=False)}


@pytest.mark.parametrize("window", G_WINDOWS)
def test_repro_g_windows(window):
    committed, inflight, lost, final_sync = G_WINDOWS[window]
    engine, _ = repro_g.crash_window(committed, inflight, lost,
                                     final_sync=final_sync)
    assert_agree_through_repair("hybrid", engine, set(committed))


def test_repro_i_window():
    assert_agree_through_repair("reorg", crash_window_i(), set(range(4000)))


def test_fsck_crashed_tree():
    tree, committed = crashed_shadow_tree(assert_agree)
    assert_agree(tree)
    for key in sorted(committed):
        tree.lookup(key)
    list(tree.range_scan())
    assert_agree(tree)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_planted_corruption(kind):
    for level, plant, _fragment in CASES.values():
        tree = build(kind)
        assert_agree(tree)
        plant(tree, reachable(tree)[level])
        assert_agree(tree)
