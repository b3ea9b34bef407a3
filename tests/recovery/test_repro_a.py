"""ROADMAP item 1, repro A, as an open-bug count.

A four-shard group loaded with 8 000 committed keys by single inserts,
then crashed mid-sync with about 250 uncommitted keys per shard in
flight — a dozen leaf splits and likely an internal one in one torn
window.  At 512 B and 1 KiB pages most seeds fail recovery today
("entry-0 separator below bounds", or a key outside an empty promised
range).  Those cases are strict xfails: tier-1's summary counts them, and
the fix that makes one pass has to remove its marker.
"""

import pytest

from repro.shard import RecoveryOrchestrator

from .helpers import build_crashed_group

#: (page size, seed) pairs that fail recovery today
OPEN = {(page, seed) for page in (512, 1024) for seed in (1, 2, 3, 4, 6)}


def cases():
    for page in (512, 1024, 4096):
        for seed in range(1, 7):
            marks = ([pytest.mark.xfail(strict=True,
                                        reason="ROADMAP item 1, repro A")]
                     if (page, seed) in OPEN else [])
            yield pytest.param(page, seed, marks=marks,
                               id=f"{page}-{seed}")


@pytest.mark.parametrize("page_size,seed", cases())
def test_repro_a_recovers(page_size, seed):
    group = build_crashed_group(4, total_keys=8000, page_size=page_size,
                                seed=seed)
    _group, report = RecoveryOrchestrator().recover(group, "ix")
    assert report.ok, [r.error for r in report.shards if not r.ok]
