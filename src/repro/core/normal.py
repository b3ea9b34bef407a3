"""The baseline: a traditional (crash-unsafe) B-link tree.

This is the "Normal" row of Table 1 — a textbook B<sup>link</sup>-tree that
splits pages **in place**: the split page keeps its low half, a newly
allocated right sibling takes the high half, and the parent gains one
separator entry.  It performs no inter-page verification while descending
(``VERIFIES = False``), which is exactly why the paper's recoverable trees
cost a few percent more: their descents validate every parent→child link.

A crash during a sync can genuinely corrupt this tree (lose committed keys
or leave dangling pointers); the recovery benchmark demonstrates that —
the baseline exists to show both the performance *and* the safety gap.
"""

from __future__ import annotations

from ..constants import INVALID_PAGE, PAGE_INTERNAL, PAGE_LEAF
from ..errors import TreeError
from .btree_base import BLinkTree, PathEntry
from .keys import MIN_KEY
from . import items as I


class NormalBLinkTree(BLinkTree):
    """Traditional B-link tree; the paper's normalization baseline."""

    KIND = "normal"
    SHADOW_ITEMS = False
    VERIFIES = False

    # ------------------------------------------------------------------
    # splits
    # ------------------------------------------------------------------

    def _split_and_insert(self, path: list[PathEntry], idx: int,
                          item: bytes, key: bytes) -> None:
        """Split ``path[idx]`` in place and insert *item*, propagating a
        separator upward (recursively splitting full ancestors)."""
        entry = path[idx]
        view = entry.view
        blobs = view.items()
        slot, found = view.search(key)
        if found:
            raise TreeError(f"split_and_insert on existing key {key.hex()}")
        blobs.insert(slot, item)
        if len(blobs) < 2:
            raise TreeError("key too large to split a page around")
        h = self._split_point(view, len(blobs), slot == len(blobs) - 1)
        left_blobs, right_blobs = blobs[:h], blobs[h:]
        sep = I.item_key(right_blobs[0], 0)
        token = self._token()
        self.splits.inc()

        old_right = view.right_peer
        page_type = PAGE_LEAF if view.is_leaf else PAGE_INTERNAL
        right_no, rbuf, rview = self._alloc(page_type, view.level)
        try:
            rview.replace_items(right_blobs)
            rview.left_peer = entry.page_no
            rview.left_peer_token = token
            rview.right_peer = old_right
            rview.right_peer_token = token
            rview.sync_token = token

            # the split page keeps the low half, overwritten in place —
            # the step that makes this tree unrecoverable
            view.replace_items(left_blobs)
            view.right_peer = right_no
            view.right_peer_token = token
            view.sync_token = token
            self._dirty(entry.buffer)

            if old_right != INVALID_PAGE:
                nbuf, nview = self._pin(old_right)
                try:
                    nview.left_peer = right_no
                    nview.left_peer_token = token
                    self._dirty(nbuf)
                finally:
                    self._unpin(nbuf)
        finally:
            self._unpin(rbuf)
        self.engine.sync_state.note_split()

        sep_item = I.pack_internal_item(sep, right_no)
        if idx == 0:
            self._grow_root(entry, right_no, sep_item)
        else:
            self._insert_separator(path, idx - 1, sep_item, sep)

    def _insert_separator(self, path: list[PathEntry], idx: int,
                          sep_item: bytes, sep: bytes) -> None:
        parent = path[idx]
        self._before_page_update(path, idx)
        slot, found = parent.view.search(sep)
        if found:
            raise TreeError(f"separator {sep.hex()} already in parent")
        if self._page_can_fit(parent.node, len(sep_item)):
            parent.view.insert_item(slot, sep_item)
            self._dirty(parent.buffer)
        else:
            self._split_and_insert(path, idx, sep_item, sep)

    def _grow_root(self, old_root: PathEntry, right_no: int,
                   sep_item: bytes) -> None:
        """Classic root growth: the old root stays put as the left child
        and a brand-new root points at both halves."""
        self.root_splits.inc()
        new_level = old_root.view.level + 1
        root_no, rbuf, rview = self._alloc(PAGE_INTERNAL, new_level)
        try:
            left_item = I.pack_internal_item(MIN_KEY, old_root.page_no)
            rview.replace_items([left_item, sep_item])
        finally:
            self._unpin(rbuf)
        self._set_root(root_no, old_root.page_no, free_old="never",
                       height=new_level + 1)
