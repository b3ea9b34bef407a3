"""Randomized crash campaigns: many seeds, random crash subsets, full
recovery contract — plus the baseline's expected failures."""

import pytest

from repro import (
    CrashError,
    RandomSubsetCrash,
    ReproError,
    StorageEngine,
    TREE_CLASSES,
)

from .helpers import tid_for


def run_build(kind, seed, *, n=350, batch=25, page_size=512, crash_p=0.3,
              descending=False):
    """Insert ``0..n-1`` — ascending, or with *descending* from the top,
    where every split cuts its page in the middle instead of keeping four
    fifths on the left (DESIGN §5o) — syncing every *batch* keys under a
    random crash policy."""
    engine = StorageEngine.create(page_size=page_size, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    engine.crash_policy = RandomSubsetCrash(p=crash_p, seed=seed * 13 + 7)
    committed, pending = set(), []
    crashed = False
    i = 0
    while i < n and not crashed:
        key = n - 1 - i if descending else i
        try:
            tree.insert(key, tid_for(key))
        except CrashError:
            crashed = True
            break
        pending.append(key)
        i += 1
        if i % batch == 0:
            try:
                engine.sync()
                committed.update(pending)
                pending = []
            except CrashError:
                crashed = True
    return engine, committed, crashed


@pytest.mark.parametrize("kind", ["shadow", "reorg", "hybrid"])
@pytest.mark.parametrize("seed", range(20))
def test_recoverable_trees_never_lose_committed_keys(kind, seed):
    engine, committed, crashed = run_build(kind, seed)
    if not crashed:
        pytest.skip("no crash at this seed")
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[kind].open(engine2, "ix")
    missing = [k for k in committed if tree2.lookup(k) is None]
    assert not missing, sorted(missing)[:10]
    values = [v for v, _ in tree2.range_scan()]
    assert values == sorted(set(values))
    assert committed <= set(values)
    # the index accepts new work and remains sound
    for key in range(10_000, 10_050):
        tree2.insert(key, tid_for(key))
    engine2.sync()
    pairs = tree2.check(strict_tokens=False, require_peer_chain=False)
    found = {int.from_bytes(k, "big") for k, _ in pairs}
    assert committed <= found


def test_baseline_loses_data_or_corrupts():
    """The normal tree is the motivation: across the same campaign it
    must demonstrably lose committed keys or corrupt."""
    failures = 0
    crashes = 0
    for seed in range(25):
        # in place, a middle split moves committed keys to the new page
        engine, committed, crashed = run_build("normal", seed,
                                               descending=True)
        if not crashed:
            continue
        crashes += 1
        engine2 = StorageEngine.reopen_after_crash(engine)
        try:
            tree2 = TREE_CLASSES["normal"].open(engine2, "ix")
            missing = [k for k in committed if tree2.lookup(k) is None]
            if missing:
                failures += 1
                continue
            values = [v for v, _ in tree2.range_scan()]
            if not committed <= set(values):
                failures += 1
        except ReproError:
            failures += 1
    assert crashes >= 10
    # the exact rate depends on how early the random policy fires; what
    # matters is that the baseline demonstrably fails where the
    # recoverable trees (same seeds, test above) never do
    assert failures >= 3, (
        f"baseline survived too often ({failures}/{crashes}); "
        "the crash harness may have stopped biting")


@pytest.mark.parametrize("kind", ["shadow", "reorg"])
def test_double_crash_epochs(kind):
    """Crash during recovery-era work, recover again."""
    for seed in (3, 7, 11):
        engine, committed, crashed = run_build(kind, seed)
        if not crashed:
            continue
        engine2 = StorageEngine.reopen_after_crash(engine)
        tree2 = TREE_CLASSES[kind].open(engine2, "ix")
        engine2.crash_policy = RandomSubsetCrash(p=0.5, seed=seed + 999)
        crashed2 = False
        pending = []
        for key in range(20_000, 20_120):
            try:
                tree2.insert(key, tid_for(key))
                pending.append(key)
                if key % 30 == 29:
                    engine2.sync()
                    committed.update(pending)
                    pending = []
            except CrashError:
                crashed2 = True
                break
        engine3 = StorageEngine.reopen_after_crash(engine2)
        tree3 = TREE_CLASSES[kind].open(engine3, "ix")
        missing = [k for k in committed if tree3.lookup(k) is None]
        assert not missing, sorted(missing)[:10]
