"""ROADMAP item 1, repro A, as an open-bug count.

A four-shard group loaded with 8 000 committed keys by single inserts,
then crashed mid-sync with about 250 uncommitted keys per shard in
flight — a dozen leaf splits and likely an internal one in one torn
window.  Every committed key must come back through both ``lookup`` and
``range_scan``.  The cases that still fail (A2: a fresh page split twice
inside one sync window) are strict xfails: tier-1's summary counts them,
and the fix that makes one pass has to remove its marker.

A1, the covering entry, has its minimal case here as a named regression.
"""

import pytest

from repro import TID, TREE_CLASSES, CrashError, StorageEngine
from repro.shard import RecoveryOrchestrator
from repro.storage.crash import CrashOnNthSync

from .helpers import build_crashed_group, tid_for, verify_recovered

#: (page size, seed) pairs that fail recovery today (A2)
OPEN = {(512, 4), (512, 6)}

TOTAL_KEYS = 8000


def cases():
    for page in (512, 1024, 4096):
        for seed in range(1, 7):
            marks = ([pytest.mark.xfail(strict=True,
                                        reason="ROADMAP item 1, repro A2")]
                     if (page, seed) in OPEN else [])
            yield pytest.param(page, seed, marks=marks,
                               id=f"{page}-{seed}")


@pytest.mark.parametrize("page_size,seed", cases())
def test_repro_a_recovers(page_size, seed):
    group = build_crashed_group(4, total_keys=TOTAL_KEYS,
                                page_size=page_size, seed=seed)
    group, report = RecoveryOrchestrator().recover(group, "ix")
    assert report.ok, [r.error for r in report.shards if not r.ok]
    tree = group.open_tree("ix")
    missing = [k for k in range(TOTAL_KEYS) if tree.lookup(k) is None]
    assert not missing, f"committed keys lost to lookup: {missing[:10]}"
    values = [v for v, _ in tree.range_scan()]
    assert values == sorted(set(values)), "scan unsorted or duplicated"
    lost = set(range(TOTAL_KEYS)) - set(values)
    assert not lost, f"committed keys lost to the scan: {sorted(lost)[:10]}"


@pytest.mark.parametrize("engine_seed", [1, 2, 3, 5])
def test_a1_lost_internal_half_keeps_only_its_covering_entry(engine_seed):
    """The 33rd uncommitted insert splits internal page 102 into 140 and
    141 and the root gains ``0x700 -> 141, prev=102``.  Every page of
    that 12-page sync persists except 141.  Rebuilding 141 from 102 must
    start at the *last* entry of 102 at or below 141's low bound; keeping
    102's entry 0 instead reached child 97 twice and failed with "entry-0
    separator below bounds"."""
    engine = StorageEngine.create(page_size=512, seed=engine_seed)
    tree = TREE_CLASSES["shadow"].create(engine, "ix", codec="uint32")
    for i in range(2000):
        tree.insert(i, tid_for(i))
        if (i + 1) % 100 == 0:
            engine.sync()
    for j in range(33):
        tree.insert(2000 + j, TID(7, j))
    batch = []

    def all_but_141(pages):
        batch.extend(pages)
        return [pid for pid in pages if pid != ("ix", 141)]

    engine.crash_policy = CrashOnNthSync(1, keep=all_but_141)
    with pytest.raises(CrashError):
        engine.sync()
    assert len(batch) == 12 and ("ix", 141) in batch
    verify_recovered("shadow", engine, set(range(2000)))
