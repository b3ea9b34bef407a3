"""The hybrid tree the paper's introduction sketches.

"A hybrid between the two algorithms could preserve the best features of
each.  Using shadow paging near the leaf pages where splits are most
common would improve split performance; using page reorganization nearer
the root would reduce space overhead."

Concretely: **leaf pages split with Technique One** (shadow paging, so the
hot split path never blocks for a sync and pays no backup-copy work), and
**internal pages split with Technique Two** (page reorganization, so only
the one internal level that parents the leaves pays the prevPtr fanout
tax; everything above keeps traditional fanout).

Item layouts per level:

* level 0 (leaves) — plain ``<key, TID>`` items;
* level 1 — ``<key, childPtr, prevPtr>`` triples (they parent shadow-split
  leaves and need the previous-page pointers for repair);
* level ≥ 2 — plain ``<key, childPtr>`` items (they parent reorg-split
  internals, which carry their own backups).

Dispatch is by level: splits, descent verification and repair all route to
the shadow or the reorg implementation inherited from the two concrete
trees.
"""

from __future__ import annotations

from ..storage.buffer_pool import Buffer
from .btree_base import PathEntry
from .keys import KeyBounds
from .reorg import ReorgBLinkTree
from .shadow import ShadowBLinkTree


class HybridBLinkTree(ShadowBLinkTree, ReorgBLinkTree):
    """Shadow-paging leaves over page-reorganization internals."""

    KIND = "hybrid"
    SHADOW_ITEMS = False  # not uniform; see _level_uses_shadow_items
    VERIFIES = True

    #: levels below this split shadow-style; at/above it, reorg-style.
    shadow_below = 1

    # descent movement must resolve stale reorg backups, which the reorg
    # implementation does; the shadow newPage jump it omits only matters
    # to in-flight concurrent readers
    _follow_moves = ReorgBLinkTree._follow_moves
    _make_moves = ReorgBLinkTree._make_moves

    def _level_uses_shadow_items(self, level: int) -> bool:
        # prevPtrs live exactly on the pages that parent shadow-split
        # children
        return level == self.shadow_below

    def _page_reserve(self, level: int) -> int:
        if level < self.shadow_below:
            # shadow-split pages need no backup headroom
            return 0
        return ReorgBLinkTree._page_reserve(self, level)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _split_and_insert(self, path: list[PathEntry], idx: int,
                          item: bytes, key: bytes, fixup=None) -> None:
        if path[idx].view.level < self.shadow_below:
            ShadowBLinkTree._split_and_insert(self, path, idx, item, key,
                                              fixup=fixup)
        else:
            ReorgBLinkTree._split_and_insert(self, path, idx, item, key,
                                             fixup=fixup)

    def _check_child(self, parent: PathEntry, child_no: int,
                     child_buf: Buffer, bounds: KeyBounds,
                     level: int) -> None:
        if level < self.shadow_below:
            ShadowBLinkTree._check_child(self, parent, child_no, child_buf,
                                         bounds, level)
        else:
            ReorgBLinkTree._check_child(self, parent, child_no, child_buf,
                                        bounds, level)
