"""Technique One: shadow-page B-link trees (paper Section 3.3).

Every internal-page entry is a ``<key, childPtr, prevPtr>`` triple.  A
split of page ``P`` never touches ``P``: two fresh pages ``Pa``/``Pb`` take
its keys and the parent is updated in one page write —

1. a new key ``K2`` (child ``Pb``) is allocated on the parent;
2. if ``P`` is already on stable storage (its sync token differs from the
   global sync counter) both ``K1`` and ``K2`` take ``P`` as their
   previous page and ``P`` is freed *after the next sync*;
3. otherwise ``P`` was never written: ``K2`` inherits ``K1``'s previous
   page and ``P`` is recycled immediately (two splits at one key inside a
   single sync window);
4. ``K2`` enters the line table with the crash-safe insert ordering;
5. ``K1``'s child pointer is redirected to ``Pa``.

Descent verifies every parent→child step by comparing the child's actual
key span with the range the parent expects (Section 3.3.1); a broken link
is repaired by re-copying the expected range out of the prevPtr page
(Section 3.3.2) — the repair *is* the split re-executed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

from ..constants import INVALID_PAGE, PAGE_INTERNAL, PAGE_LEAF, PAGE_MAGIC
from ..errors import TreeError
from ..storage import is_zeroed, valid_magic
from ..storage.buffer_pool import Buffer
from .btree_base import BLinkTree, PathEntry
from .detect import Action, DetectionReport, Kind
from .keys import MIN_KEY, KeyBounds
from .nodeview import DecodedNode, NodeView, node_of
from . import items as I


class ShadowBLinkTree(BLinkTree):
    """Shadow-paging B-link tree (the paper's Technique One)."""

    KIND = "shadow"
    SHADOW_ITEMS = True
    VERIFIES = True

    # ------------------------------------------------------------------
    # descent verification (Section 3.3.1)
    # ------------------------------------------------------------------

    def _child_consistent(self, child: DecodedNode, bounds: KeyBounds,
                          expected_level: int) -> bool:
        """The Section 3.3.1 test: does the child actually hold the key
        range the parent promised?

        This is the hot path whose cost Table 1 measures ("the added
        expense of verifying inter-page links in traversing the tree"):
        header fields come from the node, and of the keys only the two
        end ones are looked at — off the bytes while the page's key list
        is not decoded.
        """
        # a zeroed page has no valid header; one cheap header check
        # covers both the lost-image and the garbage cases
        if child.magic != PAGE_MAGIC:
            return False
        page_type = child.page_type
        if page_type != PAGE_LEAF and page_type != PAGE_INTERNAL:
            return False
        if child.level != expected_level:
            return False
        if child.n_keys == 0:
            # a formatted empty page can only exist durably if a sync
            # wrote it; nothing disproves it
            return True
        lo = child.min_key()
        if lo and lo < bounds.lo:
            return False
        hi = bounds.hi
        if hi is not None and child.max_key() >= hi:
            return False
        return True

    def _check_child(self, parent: PathEntry, child_no: int,
                     child_buf: Buffer, bounds: KeyBounds,
                     level: int) -> None:
        if not self._child_consistent(node_of(child_buf), bounds, level):
            self._repair_from_prev(parent, child_no, child_buf, bounds,
                                   level)
        self._vet_intra_page(child_no, child_buf)

    def _repair_from_prev(self, parent: PathEntry, child_no: int,
                          child_buf: Buffer, bounds: KeyBounds,
                          level: int) -> None:
        """Re-execute the interrupted split (Section 3.3.2): rebuild the
        child from the keys the prevPtr page holds in the expected range
        (:meth:`_items_in_range`).  With no prevPtr recorded, no durable
        page ever held the range, so it is rebuilt as an empty subtree of
        the child's height."""
        started = perf_counter()
        child_view = NodeView(child_buf.data, self.page_size)
        parent_view = parent.view
        slot = (parent.slot if parent.slot >= 0
                else parent_view.route(bounds.lo))
        prev_no = parent_view.prev_at(slot)
        kind = (Kind.ZEROED_CHILD if is_zeroed(child_buf.data)
                else Kind.RANGE_MISMATCH)
        to_link: list[tuple[int, bytes]] = []
        blobs = self._items_in_range(prev_no, bounds, level, to_link)
        child_view.init_page(PAGE_LEAF if level == 0 else PAGE_INTERNAL,
                             level=level, sync_token=self._token(),
                             shadow_items=self._level_uses_shadow_items(level))
        child_view.replace_items(blobs)
        self._relink_repaired(parent, slot, child_no, child_view)
        self._dirty(child_buf)
        self.engine.sync_state.note_split()
        self.repair_log.add(DetectionReport(
            kind, child_no, Action.REBUILT_FROM_PREV,
            parent_page=parent.page_no, slot=slot,
            detail=f"prev={prev_no}"),
            duration=perf_counter() - started)
        if level == 0:
            # the links above reach only the parent's other children
            to_link.append((child_no, bounds.lo))
        for leaf_no, low in to_link:
            self._link_into_chain(leaf_no, low)
        self._verify_episode_around(child_no)
        self._rebuild_lost_neighbors(parent, slot, level)

    def _rebuild_lost_neighbors(self, parent: PathEntry, slot: int,
                                level: int) -> None:
        """Rebuild the children beside *slot* whose images were lost too:
        most often the other half of the split just redone.  A lost page
        whose range held only uncommitted keys is otherwise reached by no
        lookup of a committed key, nor by a scan — the rebuilt page's link
        stops short of it — and would stay reachable from its parent as a
        zeroed page.  Each rebuild looks at its own neighbours in turn."""
        pview = parent.view
        for side in (slot - 1, slot + 1):
            if not 0 <= side < pview.n_keys:
                continue
            sib_no = pview.child_at(side)
            sbuf = self.file.pin(sib_no)
            try:
                if not valid_magic(sbuf.data):
                    self._repair_from_prev(
                        PathEntry(parent.page_no, parent.buffer,
                                  parent.bounds, side),
                        sib_no, sbuf,
                        self._child_bounds(pview, side, parent.bounds),
                        level)
            finally:
                self._unpin(sbuf)

    def _items_in_range(self, source_no: int, bounds: KeyBounds, level: int,
                        to_link: list[tuple[int, bytes]]) -> list[bytes]:
        """The items of a page at *level* that holds *bounds*, rebuilt
        from the durable page *source_no* (DESIGN §5b.10).

        A leaf source gives its keys in range.  An internal source gives
        the entries whose children route into the range — from the last
        separator at or below ``lo`` (an earlier one routes below it) to
        the last below ``hi``.  An entry whose child's range in the source
        lies inside *bounds* is copied as it is.  A child whose range
        crosses a bound also serves a sibling's range, so it is never
        named here: a repair that later found it too wide for this page
        would narrow it in place, under the sibling.  That child is
        rebuilt instead, the same way, into a fresh page for the part of
        its range inside *bounds*, which the entry names with the child as
        its prevPtr.  The source's image may name a page the window made
        and the crash lost, so a child that fails the descent's test for
        its range in the source gives way to the entry's own prevPtr, as
        the source and as the fresh entry's prevPtr.  With no source, every key in range was uncommitted:
        an empty subtree of the right height.  Fresh leaves are added to
        *to_link* with their low keys, for the caller to link into the
        peer chain once the pages above them are in place."""
        routes = [(bounds.lo, None, INVALID_PAGE, b"")]
        if source_no != INVALID_PAGE:
            sbuf = self.file.pin(source_no)
            try:
                sview = NodeView(sbuf.data, self.page_size)
                keys = [sview.key_at(i) for i in range(sview.n_keys)]
                if level == 0:
                    return [sview.item_bytes_at(i)
                            for i, key in enumerate(keys)
                            if bounds.contains(key)]
                if keys:
                    first = max(bisect_right(keys, bounds.lo) - 1, 0)
                    stop = (len(keys) if bounds.hi is None
                            else bisect_left(keys, bounds.hi, first + 1))
                    routes = [(keys[i], keys[i + 1] if i + 1 < len(keys)
                               else None, sview.child_at(i),
                               sview.item_bytes_at(i))
                              for i in range(first, stop)]
            finally:
                self._unpin(sbuf)
        elif level == 0:
            return []
        blobs = []
        shadow = self._level_uses_shadow_items(level)
        for key, nxt, child, blob in routes:
            if key >= bounds.lo and child != INVALID_PAGE and (
                    bounds.hi is None
                    or (nxt is not None and nxt <= bounds.hi)):
                blobs.append(blob)
                continue
            if child != INVALID_PAGE and not self._holds_range(
                    child, KeyBounds(key, nxt), level - 1):
                # the source's image can name a page the window made
                # and lost: its entry's prevPtr holds what it held
                child = I.item_prev(blob, 0) if shadow else INVALID_PAGE
            part = bounds.child(key, nxt)
            page_type = PAGE_LEAF if level == 1 else PAGE_INTERNAL
            items = self._items_in_range(child, part, level - 1, to_link)
            page_no, buf, view = self._alloc(page_type, level - 1)
            try:
                view.replace_items(items)
            finally:
                self._unpin(buf)
            if level == 1:
                to_link.append((page_no, part.lo))
            blobs.append(I.pack_internal_item(
                part.lo, page_no, prev=child if shadow else None))
        return blobs

    def _holds_range(self, page_no: int, bounds: KeyBounds,
                     level: int) -> bool:
        """Whether *page_no* passes the descent's test
        (:meth:`_child_consistent`) for *bounds* at *level*."""
        buf = self.file.pin(page_no)
        try:
            return self._child_consistent(node_of(buf), bounds, level)
        finally:
            self._unpin(buf)

    def _relink_repaired(self, parent: PathEntry, slot: int,
                         child_no: int, child_view: NodeView) -> None:
        """Best-effort peer links for a rebuilt child: wire it to the
        children of the adjacent parent entries.  Links that cannot be
        established here are healed lazily by scan-time token checks."""
        token = self._token()
        pview = parent.view
        if slot > 0:
            left_no = pview.child_at(slot - 1)
            lbuf, lview = self._pin(left_no)
            try:
                if valid_magic(lbuf.data):
                    lview.right_peer = child_no
                    lview.right_peer_token = token
                    child_view.left_peer = left_no
                    child_view.left_peer_token = token
                    self._dirty(lbuf)
            finally:
                self._unpin(lbuf)
        if slot + 1 < pview.n_keys:
            right_no = pview.child_at(slot + 1)
            rbuf, rview = self._pin(right_no)
            try:
                if valid_magic(rbuf.data):
                    rview.left_peer = child_no
                    rview.left_peer_token = token
                    child_view.right_peer = right_no
                    child_view.right_peer_token = token
                    self._dirty(rbuf)
            finally:
                self._unpin(rbuf)

    # ------------------------------------------------------------------
    # Lehman-Yao moved-right links (Section 3.6)
    # ------------------------------------------------------------------

    def _follow_moves(self, page_no, buf, bounds, key):
        node = node_of(buf)
        # the conditions :meth:`_make_moves` loops on: a descent step that
        # stays put (nearly all do) tests them and pays for nothing else
        if ((node.new_page != INVALID_PAGE
             and self.engine.sync_state.is_current(node.sync_token))
                or (node.n_keys and node.right_peer != INVALID_PAGE
                    and key > node.max_key())):
            return self._make_moves(page_no, buf, node, bounds, key)
        return page_no, buf, node, bounds

    def _make_moves(self, page_no, buf, node, bounds, key):
        origin = buf        # the caller's pin: kept until the moves end
        hops = 0            # moves made: from the first, buf's pin is ours
        try:
            # A dead pre-split page advertises its replacement through
            # newPage.  The splitter restamps the page's token when setting
            # the link, so the link is trusted only if it was made in the
            # current sync window; a stale pre-crash link is ignored — the
            # intact old page is itself a consistent image of the tree.
            while (node.new_page != INVALID_PAGE
                   and self.engine.sync_state.is_current(node.sync_token)):
                target = node.new_page
                self._check_move_progress(hops, target)
                tbuf, tnode = self._pin_node(target)
                if tnode.magic != PAGE_MAGIC:
                    self._unpin(tbuf)
                    break
                if hops:
                    self._unpin(buf)
                page_no, buf, node = target, tbuf, tnode
                hops += 1
                self._m_moves_right.inc()
                if node.n_keys:
                    bounds = KeyBounds(max(bounds.lo, node.min_key()),
                                       bounds.hi)
            # move right along the peer chain when the key lies beyond
            # this page's live span and the right sibling provably covers it
            while (node.n_keys and node.right_peer != INVALID_PAGE
                   and key > node.max_key()):
                target = node.right_peer
                self._check_move_progress(hops, target)
                tbuf, tnode = self._pin_node(target)
                try:
                    stay = (tnode.magic != PAGE_MAGIC
                            or tnode.level != node.level or tnode.n_keys == 0
                            or tnode.min_key() > key)
                except BaseException:
                    self._unpin(tbuf)
                    raise
                if stay:
                    self._unpin(tbuf)
                    break
                if hops:
                    self._unpin(buf)
                page_no, buf, node = target, tbuf, tnode
                hops += 1
                self._m_moves_right.inc()
                bounds = KeyBounds(node.min_key(), bounds.hi)
        except BaseException:
            if hops:
                self._unpin(buf)
            raise
        if hops:
            self._unpin(origin)
        return page_no, buf, node, bounds

    # ------------------------------------------------------------------
    # splits (Section 3.3)
    # ------------------------------------------------------------------

    def _split_and_insert(self, path: list[PathEntry], idx: int,
                          item: bytes, key: bytes,
                          fixup: tuple[int, int, int] | None = None) -> None:
        entry = path[idx]
        view = entry.view
        blobs = view.items()
        if fixup is not None:
            # the split of this page carries a pending child redirection
            # (step 5 of the split below us).  It must appear in the new
            # halves but NEVER on this page's own buffer: this page is
            # about to become the durable `prev` image, and "the keys on P
            # are neither modified nor overwritten" is what makes prev a
            # sound recovery source.
            k1_slot, k1_child, k1_prev = fixup
            k1_key = I.item_key(blobs[k1_slot], 0)
            blobs[k1_slot] = I.pack_internal_item(k1_key, k1_child,
                                                  prev=k1_prev)
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
        page_type = PAGE_LEAF if view.is_leaf else PAGE_INTERNAL
        p_no = entry.page_no
        # capture before the token restamp below: has a sync made P durable
        # since it was initialized? (split steps 2 vs 3)
        p_durable = self.engine.sync_state.synced_since_init(view.sync_token)

        pa_no, pa_buf, pa_view = self._alloc(page_type, view.level)
        try:
            pb_no, pb_buf, pb_view = self._alloc(page_type, view.level)
        except BaseException:
            # Pa is already pinned; a failed Pb allocation (pool
            # exhaustion) must not strand it
            self._unpin(pa_buf)
            raise
        try:
            pa_view.replace_items(left_blobs)
            pb_view.replace_items(right_blobs)

            old_left, old_right = view.left_peer, view.right_peer
            pa_view.left_peer, pa_view.left_peer_token = old_left, token
            pa_view.right_peer, pa_view.right_peer_token = pb_no, token
            pb_view.left_peer, pb_view.left_peer_token = pa_no, token
            pb_view.right_peer, pb_view.right_peer_token = old_right, token
            self._restamp_neighbor(old_left, right_side=True,
                                   peer=pa_no, token=token)
            self._restamp_neighbor(old_right, right_side=False,
                                   peer=pb_no, token=token)

            # advertise the replacement to in-flight readers; the link
            # lives in the buffer only (P is not marked dirty for it, so
            # P's durable image keeps its pre-split bytes) — declared to
            # the pool so the sanitizer knows the divergence is deliberate
            view.new_page = pa_no
            view.sync_token = token
            self.file.pool.note_volatile(entry.buffer)

            self.engine.sync_state.note_split()

            if idx == 0:
                self._shadow_split_root(entry, pa_no, pb_no, sep, p_durable)
            else:
                self._shadow_parent_update(path, idx - 1, entry, pa_no,
                                           pb_no, sep, p_durable)
        finally:
            self._unpin(pa_buf)
            self._unpin(pb_buf)

    def _shadow_parent_update(self, path: list[PathEntry], pidx: int,
                       split_entry: PathEntry, pa_no: int, pb_no: int,
                       sep: bytes, p_durable: bool) -> None:
        """Steps (1)-(5) of Section 3.3 applied to the parent page."""
        parent = path[pidx]
        self._before_page_update(path, pidx)
        pview = parent.view
        k1 = parent.slot
        p_no = split_entry.page_no
        # step (2): a P on stable storage becomes the previous page for
        # both keys; step (3): a P that never reached the disk leaves
        # K1's previous page in place.  Either way P is erased and
        # recycled only after the next sync.
        new_prev = p_no if p_durable else pview.prev_at(k1)
        self.file.free(p_no)
        k2_item = I.pack_internal_item(sep, pb_no, prev=new_prev)
        if self._page_can_fit(parent.node, len(k2_item)):
            # the whole update lands on one page, atomically at sync
            pview.insert_item(k1 + 1, k2_item)            # steps (1)+(4)
            pview.set_child_at(k1, pa_no)                 # step (5)
            if p_durable:
                pview.set_prev_at(k1, p_no)               # step (2)
            self._dirty(parent.buffer)
        else:
            # the parent overflows: K1's redirection must appear in the
            # split's new halves only — rewriting it on this page's own
            # buffer would corrupt the durable prev image it is about to
            # become (a narrowed K1 with no K2 loses the other half)
            self._split_and_insert(path, pidx, k2_item, sep,
                                   fixup=(k1, pa_no, new_prev))

    def _shadow_split_root(self, old_root: PathEntry, pa_no: int, pb_no: int,
                    sep: bytes, p_durable: bool) -> None:
        """Root split: a new root holds two shadow triples and the meta
        page's root pointer moves (it has its own prev/current pair)."""
        self.root_splits.inc()
        new_level = old_root.view.level + 1
        p_no = old_root.page_no
        if p_durable:
            prev_for_entries = p_no
        else:
            # the old root never hit the disk; fall back to the previous
            # root, which is durable and holds every committed key
            mbuf, meta = self._read_meta()
            try:
                prev_for_entries = meta.prev_root
            finally:
                self._unpin(mbuf)
        root_no, rbuf, rview = self._alloc(PAGE_INTERNAL, new_level)
        try:
            left = I.pack_internal_item(MIN_KEY, pa_no, prev=prev_for_entries)
            right = I.pack_internal_item(sep, pb_no, prev=prev_for_entries)
            rview.replace_items([left, right])
        finally:
            self._unpin(rbuf)
        self._set_root(root_no, p_no, free_old="shadow", height=new_level + 1,
                       old_durable=p_durable)
