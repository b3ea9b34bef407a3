"""ROADMAP item 1, repro J: a lost split of the leftmost level-1 page.

When the leftmost level-1 page splits in a window keeping its high half
and that new image is lost, the durable pre-split page, whose entry 0 is
the minimum key, sits under a root entry that starts past it.  The
descent's wide-left test let any minimum first key pass, so the split
was never redone.  A page with more than one entry whose first is the
minimum now counts as too wide.  That test once broke a spine a repair
had rebuilt empty, whose entry named the minimum key; such a spine now
carries its range's low bound (``test_repro_i.py``).
"""

from .helpers import verify_recovered
from .test_repro_g import crash_window


def test_j_stale_leftmost_level1_page_is_split_again():
    """Hybrid: keys 119 down to 20 committed, 19 down to 0 in the
    window, lose page 17.  Before the fix ``check()`` after 60 inserts
    raised "page 17: key 0000001d outside [00000032, 00000055)"."""
    engine, _ = crash_window(range(119, 19, -1), range(19, -1, -1), 17,
                             final_sync=False)
    verify_recovered("hybrid", engine, set(range(20, 120)))


def test_j_rebuilt_empty_spine_is_not_split_again():
    """Reorg: keys 0-99 committed, 100-259 in the window, lose pages 17
    and 30.  A spine rebuilt empty whose entry named the minimum key
    passed the wide-left test only by that key; counted as too wide, its
    redone split lost the keys inserted after recovery."""
    engine, _ = crash_window(range(100), range(100, 260), 17, 30,
                             final_sync=False, kind="reorg")
    verify_recovered("reorg", engine, set(range(100)))
