"""Crash recovery seen through the decoded nodes.

The decoded node must be *invisible* to the recovery protocol: the same
crash subsets recover to the same contents whether pages are read through
decoded lists or straight off the bytes, and the leaf finger never serves
a page whose repairs haven't run — a freshly reopened tree still detects
every inconsistency on first use.
"""

from contextlib import nullcontext

import pytest

from repro import CrashError, CrashOnNthSync, StorageEngine, TREE_CLASSES
from repro.storage import RecordingPolicy, SubsetEnumerator

from ..fastpath.helpers import assert_all_nodes_match_bytes, bytes_only
from .helpers import PAGE, tid_for, verify_recovered

COMMITTED_KEYS = 64


def build_scenario(kind: str, *, seed: int = 21):
    """Rebuild the single-split crash window (same shape as
    test_exhaustive_subsets.build_scenario)."""
    engine = StorageEngine.create(page_size=PAGE, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    for i in range(COMMITTED_KEYS):
        tree.insert(i, tid_for(i))
        if (i + 1) % 32 == 0:
            engine.sync()
    engine.sync()
    splits = tree.stats_splits
    i = COMMITTED_KEYS
    while tree.stats_splits == splits:
        tree.insert(i, tid_for(i))
        i += 1
    return engine, tree


def recovered_contents(kind, engine):
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[kind].open(engine2, "ix")
    values = [v for v, _ in tree2.range_scan()]
    lookups = [tree2.lookup(k) for k in range(COMMITTED_KEYS)]
    assert_all_nodes_match_bytes(tree2)
    return values, lookups, len(tree2.repair_log)


@pytest.mark.parametrize("kind", ["shadow", "reorg", "hybrid"])
def test_crash_subsets_recover_identically_decoded_and_from_bytes(kind):
    """For a sample of crash subsets of the split sync, the recovered
    index is element-for-element identical whether it is read through
    decoded nodes or through the per-item byte decode, and the
    detect-on-first-use repairs fire the same number of times."""
    probe_engine, _ = build_scenario(kind)
    recorder = RecordingPolicy()
    probe_engine.sync(recorder)
    batch = recorder.batches[0]

    subsets = list(SubsetEnumerator(batch, max_exhaustive=5,
                                    sample=24).subsets())
    for subset in subsets:
        if len(subset) == len(batch):
            continue
        outcomes = []
        for reader in (nullcontext, bytes_only):
            with reader():
                engine, tree = build_scenario(kind)
                with pytest.raises(CrashError):
                    engine.sync(CrashOnNthSync(1, keep=list(subset)))
                outcomes.append(recovered_contents(kind, engine))
        decoded, from_bytes = outcomes
        assert decoded[:2] == from_bytes[:2], \
            f"subset {sorted(subset)} recovered differently from nodes"
        assert decoded[2] == from_bytes[2], \
            f"subset {sorted(subset)}: decoded nodes changed the repair count"


@pytest.mark.parametrize("kind", ["shadow", "reorg", "hybrid"])
def test_recovery_contract_full_loss(kind):
    """Worst case — the whole split batch is lost — still satisfies the
    standard recovery contract, and every node it left behind equals its
    page."""
    engine, tree = build_scenario(kind)
    with pytest.raises(CrashError):
        engine.sync(CrashOnNthSync(1, keep=[]))
    tree2 = verify_recovered(kind, engine, set(range(COMMITTED_KEYS)),
                             inserts=12)
    assert_all_nodes_match_bytes(tree2)


@pytest.mark.parametrize("kind", ["shadow", "reorg"])
def test_finger_state_does_not_survive_reopen(kind):
    """Fingers die with the tree object and decoded nodes with their
    frames: a crash reopen constructs a fresh tree over a fresh pool,
    whose first ops must all descend (and so hit the detection points),
    never resume a pre-crash finger or a pre-crash node."""
    engine, tree = build_scenario(kind)
    tree.lookup(COMMITTED_KEYS - 1)   # park a finger pre-crash
    assert tree._fastpath.finger_page is not None
    with pytest.raises(CrashError):
        engine.sync(CrashOnNthSync(1, keep=[]))
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[kind].open(engine2, "ix")
    assert tree2._fastpath.finger_page is None
    assert all(buf.node is None
               for buf in tree2.file.pool._frames.values())
    for k in range(COMMITTED_KEYS):
        assert tree2.lookup(k) == tid_for(k)
