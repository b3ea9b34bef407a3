"""Counted space: a freed page is erased after the sync that frees it and
then recycled for any use, so a shadow file stays the size of its tree.

Under Section 3.3.3's key-range rule a shadow split of a right-edge page
freed a page covering ``[k, +inf)`` that every later right-edge split
refused, and an ascending load left the file about twice its reachable
pages.  The load here is ascending at 4 KiB in 250-key ``insert_many``
chunks with a sync after each: the first chunk builds the tree bottom-up,
every later one splits the right edge.
"""

import pytest

from repro import StorageEngine, TREE_CLASSES
from repro.tools.fsck import fsck_tree

from ..conftest import tid_for

KEYS = 10_000
CHUNK = 250
#: file pages over reachable pages (meta page counted on both sides)
BOUND = {"shadow": 1.1, "hybrid": 1.1, "reorg": 1.0, "normal": 1.0}


@pytest.mark.parametrize("kind", sorted(BOUND))
def test_ascending_chunked_load_recycles_freed_pages(kind):
    engine = StorageEngine.create(page_size=4096, seed=1)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    for start in range(0, KEYS, CHUNK):
        tree.insert_many([(k, tid_for(k))
                          for k in range(start, start + CHUNK)])
        engine.sync()
    report = fsck_tree(tree)
    assert report.errors == 0 and report.keys == KEYS
    assert tree.file.n_pages / len(report.reachable) <= BOUND[kind]
    # what is not reachable is on the freelist, erased
    free = set(tree.file.freelist.entries())
    assert free == set(range(tree.file.n_pages)) - report.reachable
    assert all(tree.file.disk.durable_image(p) == bytes(4096) for p in free)
