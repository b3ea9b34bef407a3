"""Crash recovery seen through the decoded nodes.

The decoded node and the batched leaf-run must be *invisible* to the
recovery protocol: the same crash subsets recover to the same contents
whether pages are read through decoded lists or straight off the bytes,
and whether the crashed sync's writes came from single inserts or from
one ``insert_many`` that split a leaf mid-run — a freshly reopened tree
still detects every inconsistency on first use.
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


def recovered_contents(kind, engine, committed=COMMITTED_KEYS):
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[kind].open(engine2, "ix")
    values = [v for v, _ in tree2.range_scan()]
    lookups = [tree2.lookup(k) for k in range(committed)]
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


#: the batched campaign commits 72 keys, which leaves the rightmost leaf
#: of every kind a few slots short of full; the crashed sync's inserts
#: ascend from there, far enough to fill it and two more
WINDOW = range(72, 112)


def build_window(kind: str, *, batched: bool, seed: int = 21):
    """The same committed keys and the same uncommitted *WINDOW*, written
    key by key or as ``insert_many`` calls."""
    engine = StorageEngine.create(page_size=PAGE, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")

    def write(keys):
        if batched:
            tree.insert_many((i, tid_for(i)) for i in keys)
        else:
            for i in keys:
                tree.insert(i, tid_for(i))
    for start in range(0, WINDOW[0], 24):
        write(range(start, start + 24))
        engine.sync()
    splits = tree.stats_splits
    write(WINDOW[:1])
    assert tree.stats_splits == splits      # the leaf has room for one,
    write(WINDOW[1:])
    assert tree.stats_splits > splits       # so the split came mid-run
    return engine, tree


@pytest.mark.parametrize("kind", ["shadow", "reorg", "hybrid"])
def test_crash_subsets_of_a_batch_that_split_mid_run_recover_like_singles(
        kind):
    """The crashed sync carries a leaf split that happened inside a
    leaf-run, with the path the run already held.  Every sampled subset
    of its page writes recovers to the contents, and with the repair
    count, of the same keys inserted one at a time."""
    probe_engine, _ = build_window(kind, batched=True)
    recorder = RecordingPolicy()
    probe_engine.sync(recorder)
    batch = recorder.batches[0]
    for subset in SubsetEnumerator(batch, max_exhaustive=5,
                                   sample=24).subsets():
        if len(subset) == len(batch):
            continue
        outcomes = []
        for batched in (True, False):
            engine, _tree = build_window(kind, batched=batched)
            with pytest.raises(CrashError):
                engine.sync(CrashOnNthSync(1, keep=list(subset)))
            outcomes.append(recovered_contents(kind, engine, WINDOW[0]))
        assert outcomes[0] == outcomes[1], \
            f"subset {sorted(subset)} recovered differently from a batch"
