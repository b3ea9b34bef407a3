"""Technique Two: page-reorganization B-link trees (paper Section 3.4).

No prevPtr — fanout stays at the traditional tree's level.  Instead a
split of ``P`` is two-phase:

1. two pages are allocated; ``Pa`` **in memory only**;
2. half of ``P``'s keys go to ``Pa``, half to ``Pb``; ``Pa.prevNKeys`` is
   set to the key count of the original page;
3. ``Pb``'s half is *also* copied into ``Pa``'s free space with its own
   line table just beyond ``Pa``'s — the backup keys;
4. both pages get the current global sync counter as their sync token;
5. ``Pa`` is remapped (in buffer-pool metadata) to ``P``'s disk location;
6. the key that caused the split is added to ``Pb``.

``Pb`` is always the half that receives the triggering key, so ``Pa`` —
whose free space is occupied by the backup — is never inserted into while
the backup is live.  The backup is reclaimed only once a sync has made the
split durable; the three token cases of the reclamation check, and the
five post-crash states (a)–(e), are implemented exactly as the paper lays
them out (see ``_reclaim_or_recover`` and ``_check_child``).

One deliberate addition: alongside the backup keys we stash the original
page's peer pointers and link tokens (24 bytes — the "backup record"), so
that restoring the original page also restores its position in the peer
chain.  The paper does not spell out how peers are repaired after a
restore; the record is the minimal mechanism that makes it exact.
"""

from __future__ import annotations

from time import perf_counter

from ..constants import INVALID_PAGE, PAGE_INTERNAL, PAGE_LEAF, PAGE_MAGIC
from ..errors import RecoveryError, TreeError
from ..obs import get_registry
from ..storage import is_zeroed, token_older, valid_magic
from ..storage.buffer_pool import Buffer
from .btree_base import BLinkTree, PathEntry
from .detect import Action, DetectionReport, Kind
from .keys import FULL_BOUNDS, MIN_KEY, KeyBounds
from .nodeview import BACKUP_RECORD_SIZE, DecodedNode, NodeView, node_of
from . import items as I


class ReorgBLinkTree(BLinkTree):
    """Page-reorganization B-link tree (the paper's Technique Two)."""

    KIND = "reorg"
    SHADOW_ITEMS = False
    VERIFIES = True

    def __init__(self, engine, file, codec):
        super().__init__(engine, file, codec)
        reg = get_registry()
        #: updates that blocked for a sync because the page's backup was
        #: still needed (reclamation case 1): the cost the paper says makes
        #: this technique "best suited to environments with low insertion
        #: rates"
        self.sync_stalls = reg.counter("tree.sync_stalls", kind=self.KIND)
        self._m_reclaims = reg.counter("tree.backup_reclaims",
                                       kind=self.KIND)

    # ------------------------------------------------------------------
    # space policy
    # ------------------------------------------------------------------

    def _page_reserve(self, level: int) -> int:
        """Keep headroom for the backup record so that step (3)'s
        guarantee ("Pa is guaranteed to have space enough for Pb's keys
        and line table") survives our extra 24-byte peer record."""
        return BACKUP_RECORD_SIZE

    # ------------------------------------------------------------------
    # the reclamation check (Section 3.4, the three token cases)
    # ------------------------------------------------------------------

    def _before_page_update(self, path: list[PathEntry], idx: int) -> None:
        entry = path[idx]
        if entry.node.prev_n_keys == 0:
            return
        self._reclaim_or_recover(entry.page_no, entry.buffer, entry.view,
                                 entry.bounds)

    def _reclaim_or_recover(self, page_no: int, buf: Buffer, view: NodeView,
                            bounds: KeyBounds | None) -> None:
        """Resolve a page that still carries backup keys.

        Case 1 — token equals the global counter: no sync since the split,
        the backup is still the only durable copy; block for a sync.
        Case 2 — token within the current incarnation: a sync committed
        both halves; reclaim.
        Case 3 — token predates the last crash: inspect the sibling (and
        the parent's expectations, carried in *bounds*; ``None`` when the
        sibling was itself reached through its parent) to decide between
        recovering the sibling, undoing the split, or reclaiming.
        """
        state = self.engine.sync_state
        token = view.sync_token
        if state.is_current(token):
            # case 1: "The DBMS must block for a sync operation"
            self.sync_stalls.inc()
            self.sync_hook()
            view.reclaim_backup()
        elif state.in_current_incarnation(token):
            # case 2: the split is durable; the duplicates can go
            view.reclaim_backup()
        else:
            # case 3: crashed since this page was written
            self._resolve_stale_backup(page_no, buf, view, bounds)
            if view.prev_n_keys:
                view.reclaim_backup()
        self._m_reclaims.inc()
        self._dirty(buf)

    def _resolve_stale_backup(self, page_no: int, buf: Buffer,
                              view: NodeView,
                              bounds: KeyBounds | None) -> None:
        """Decide the fate of a pre-crash backup (cases (a)–(d)).

        The parent's expected range tells us whether the split ever made
        it into the parent: if the bounds still cover the backup half, the
        parent was not updated (cases a/b) and the original page is
        restored; otherwise the parent reflects the split and only the
        sibling may need regenerating (case c is handled when the sibling
        itself is visited; here we just verify it before reclaiming).
        """
        started = perf_counter()
        live_low = view.live_is_low
        backup_blobs = view.backup_items()
        if not backup_blobs:
            # prev_n_keys > 0 with no backup entries: reclaim zeroes the
            # backup bookkeeping, a header mutation that must be written
            # out or the durable image keeps advertising a stale backup
            # (found by lint R003 / the runtime sanitizer: the
            # _follow_moves callers never dirty the buffer themselves)
            view.reclaim_backup()
            self._dirty(buf)
            return
        backup_min = I.item_key(backup_blobs[0], 0)
        if bounds is None:
            parent_updated = True
        elif live_low:
            parent_updated = bounds.hi is not None and bounds.hi <= backup_min
        else:
            parent_updated = view.n_keys > 0 and bounds.lo >= view.min_key()

        if not parent_updated:
            # cases (a)/(b): only the halves (or just Pa) reached disk;
            # "the tree becomes consistent by regenerating P"
            abandoned = view.new_page
            view.restore_backup()
            self._dirty(buf)
            # point the old neighbours back at the restored page in case
            # their updated links were in the crashed sync's subset
            token = self._token()
            view.sync_token = token
            if view.left_peer != INVALID_PAGE:
                self._restamp_neighbor(view.left_peer, right_side=True,
                                       peer=page_no,
                                       token=view.left_peer_token)
            if view.right_peer != INVALID_PAGE:
                self._restamp_neighbor(view.right_peer, right_side=False,
                                       peer=page_no,
                                       token=view.right_peer_token)
            self.engine.sync_state.note_split()
            self.repair_log.add(DetectionReport(
                Kind.RESTORED_ORIGINAL, page_no, Action.RESTORED_BACKUP,
                detail=f"abandoned sibling {abandoned}"),
                duration=perf_counter() - started)
            if view.is_leaf and view.n_keys:
                # the record names the neighbours of the split's time; a
                # leaf the window added beyond them is found through the
                # root-to-leaf path, as for a regenerated sibling
                self._link_into_chain(page_no, view.min_key())
            self._verify_episode_around(page_no)
            return

        # parent reflects the split: make sure the sibling survived before
        # the backup is dropped ("if the sibling is zero or has an older
        # sync token, the sibling is out of date and must be recovered")
        sibling = view.new_page
        relink = None
        if sibling != INVALID_PAGE:
            sbuf = self.file.pin(sibling)
            try:
                sview = NodeView(sbuf.data, self.page_size)
                lost = (not valid_magic(sbuf.data)
                        or token_older(sview.sync_token, view.sync_token))
                if lost:
                    self._regenerate_sibling(page_no, buf, view, sibling,
                                             sbuf, sview)
                    if sview.is_leaf and bounds is not None:
                        relink = sview.min_key()
            finally:
                self._unpin(sbuf)
        view.reclaim_backup()
        view.sync_token = self._token()
        self._dirty(buf)
        self.engine.sync_state.note_split()
        if relink is not None:
            # the backup's record names the neighbours of the split's
            # time; a page the window added beyond them is found
            # through the root-to-leaf path
            self._link_into_chain(sibling, relink)

    def _regenerate_sibling(self, page_no: int, buf: Buffer,
                            view: NodeView, sibling: int, sbuf: Buffer,
                            sview: NodeView) -> None:
        """Case (c): rebuild the lost sibling from the backup keys held on
        page *page_no* (*buf*/*view*), and link the two."""
        started = perf_counter()
        blobs = view.backup_items()
        token = self._token()
        page_type = PAGE_LEAF if view.is_leaf else PAGE_INTERNAL
        sview.init_page(page_type, level=view.level, sync_token=token,
                        shadow_items=view.shadow_items)
        sview.replace_items(blobs)
        (old_left, old_left_tok,
         old_right, old_right_tok) = view.backup_record()
        if view.live_is_low:
            # sibling is the high half: between us and our old right peer
            if self._relink_far_neighbor(old_right, right_side=False,
                                         page_no=page_no, sibling=sibling,
                                         level=view.level, token=token):
                old_right_tok = token
            sview.left_peer, sview.left_peer_token = page_no, token
            sview.right_peer, sview.right_peer_token = (old_right,
                                                        old_right_tok)
            view.right_peer, view.right_peer_token = sibling, token
        else:
            if self._relink_far_neighbor(old_left, right_side=True,
                                         page_no=page_no, sibling=sibling,
                                         level=view.level, token=token):
                old_left_tok = token
            sview.right_peer, sview.right_peer_token = page_no, token
            sview.left_peer, sview.left_peer_token = old_left, old_left_tok
            view.left_peer, view.left_peer_token = sibling, token
        # both pages changed; the walk below re-enters the descent, which
        # must not meet a node decoded before these writes
        self._dirty(buf)
        self._dirty(sbuf)
        self.engine.sync_state.note_split()
        self.repair_log.add(DetectionReport(
            Kind.LOST_SIBLING, sibling, Action.REBUILT_FROM_BACKUP,
            parent_page=None, detail=f"backup on page {page_no}"),
            duration=perf_counter() - started)
        self._verify_episode_around(sibling)

    def _relink_far_neighbor(self, neighbor: int, *, right_side: bool,
                             page_no: int, sibling: int, level: int,
                             token: int) -> bool:
        """Point the regenerated sibling's outer neighbour back at it.

        The split restamped that neighbour's link to name the sibling; a
        crash may have kept the split's page and lost the restamp, leaving
        the neighbour naming *page_no*.  Left so, a later split of the
        neighbour splices its new page in next to *page_no*, and the
        sibling drops out of the peer chain that scans walk.  Only a link
        that still names *page_no* or *sibling* is rewritten; returns
        whether it was."""
        if neighbor == INVALID_PAGE:
            return False
        nbuf, nview = self._pin(neighbor)
        try:
            if not valid_magic(nbuf.data) or nview.level != level:
                return False
            link = nview.right_peer if right_side else nview.left_peer
            if link not in (page_no, sibling):
                return False
        finally:
            self._unpin(nbuf)
        self._restamp_neighbor(neighbor, right_side=right_side,
                               peer=sibling, token=token)
        return True

    def _after_root_repair(self, rbuf: Buffer, rview: NodeView) -> None:
        """A root rebuilt from the previous root may carry that page's
        backup keys; with the full key range as its expectation, the
        resolution necessarily restores the original page — the root-split
        analogue of cases (a)/(b)."""
        if rview.prev_n_keys:
            self._resolve_stale_backup(rbuf.page_no, rbuf, rview,
                                       FULL_BOUNDS)

    def _release_backups_naming(self, page_no: int, *peers: int) -> None:
        """Resolve the backup of any peer whose newPage names *page_no*.

        A backup outlives its split until the page holding it is next
        updated.  Reclaiming its sibling removes the sibling's parent
        entry, which widens the holder's bounds over the backup half: a
        crash then reads as case 3 with the parent not updated, and the
        pre-split page comes back with every key deleted and synced since.
        A split of the sibling that puts its new page between the two
        would hide the holder from this search.  In both cases the
        sibling was reached through its parent, so the split that made it
        did reach the parent, and the backup can go.
        """
        for peer in peers:
            if peer == INVALID_PAGE:
                continue
            buf = self.file.pin(peer)
            try:
                view = NodeView(buf.data, self.page_size)
                if view.prev_n_keys and view.new_page == page_no:
                    self._reclaim_or_recover(peer, buf, view, None)
            finally:
                self._unpin(buf)

    # ------------------------------------------------------------------
    # descent verification and repair (cases (c)/(d)/(e))
    # ------------------------------------------------------------------

    def _node_resolved(self, page_no: int, buf: Buffer,
                       bounds: KeyBounds) -> DecodedNode:
        """The node of a page the descent just arrived at, once any
        pre-crash backup it carries is resolved — so lookups of keys
        that live only in a backup cannot miss."""
        node = node_of(buf)
        if (node.prev_n_keys
                and self.engine.sync_state.predates_last_crash(
                    node.sync_token)):
            self._resolve_stale_backup(
                page_no, buf, NodeView(buf.data, self.page_size), bounds)
            node = node_of(buf)
        return node

    def _follow_moves(self, page_no, buf, bounds, key):
        node = self._node_resolved(page_no, buf, bounds)
        # the condition :meth:`_make_moves` loops on: a descent step that
        # stays put (nearly all do) tests it and pays for nothing else
        if (node.n_keys and key > node.max_key()
                and node.right_peer != INVALID_PAGE):
            return self._make_moves(page_no, buf, node, bounds, key)
        return page_no, buf, node, bounds

    def _make_moves(self, page_no, buf, node, bounds, key):
        origin = buf        # the caller's pin: kept until the moves end
        hops = 0            # moves made: from the first, buf's pin is ours
        # Lehman-Yao move right: the key lies beyond this page's live
        # span and the right peer provably covers it ("in page
        # reorganization, we follow peer pointers as in Lehman-Yao")
        try:
            while node.n_keys and key > node.max_key():
                target = node.right_peer
                if target == INVALID_PAGE:
                    break
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
                page_no, buf = target, tbuf
                hops += 1
                self._m_moves_right.inc()
                bounds = KeyBounds(tnode.min_key(), bounds.hi)
                node = self._node_resolved(page_no, buf, bounds)
        except BaseException:
            if hops:
                self._unpin(buf)
            raise
        if hops:
            self._unpin(origin)
        return page_no, buf, node, bounds

    def _check_child(self, parent: PathEntry, child_no: int,
                     child_buf: Buffer, bounds: KeyBounds,
                     level: int) -> None:
        child = node_of(child_buf)
        lost = (child.magic != PAGE_MAGIC
                or child.page_type not in (PAGE_LEAF, PAGE_INTERNAL)
                or child.level != level)
        if lost:
            self._repair_lost_child(
                parent, child_no, child_buf,
                NodeView(child_buf.data, self.page_size), bounds, level)
        elif child.n_keys:
            too_wide_right = (bounds.hi is not None
                              and child.max_key() >= bounds.hi)
            lo = child.min_key()
            # under an entry past MIN, a MIN entry 0 with entries after
            # it is the leftmost page's stale pre-split image
            too_wide_left = lo < bounds.lo and (lo != MIN_KEY
                                                or child.n_keys > 1)
            if too_wide_right or too_wide_left:
                sibling = self._sibling_across(
                    parent, right=too_wide_right)
                self._redo_split_of_wide_child(
                    parent.page_no, parent.slot, child_buf,
                    NodeView(child_buf.data, self.page_size),
                    bounds, sibling)
        self._vet_intra_page(child_no, child_buf)

    def _sibling_across(self, parent: PathEntry, *, right: bool) -> int:
        """The child of the parent entry adjacent to ``parent.slot``,
        crossing into the neighbouring internal page when the two halves
        of a split ended up under different parents."""
        pview = parent.view
        slot = parent.slot
        if right:
            if slot + 1 < pview.n_keys:
                return pview.child_at(slot + 1)
            neighbor = pview.right_peer
            pick_last = False
        else:
            if slot > 0:
                return pview.child_at(slot - 1)
            neighbor = pview.left_peer
            pick_last = True
        if neighbor == INVALID_PAGE:
            return INVALID_PAGE
        nbuf, nview = self._pin(neighbor)
        try:
            if nview.n_keys == 0 or not valid_magic(nbuf.data):
                return INVALID_PAGE
            index = nview.n_keys - 1 if pick_last else 0
            return nview.child_at(index)
        finally:
            self._unpin(nbuf)

    def _repair_lost_child(self, parent: PathEntry, child_no: int,
                           child_buf: Buffer, child_view: NodeView,
                           bounds: KeyBounds, level: int,
                           depth: int = 0) -> None:
        """The child image never reached stable storage (cases (c)/(e) for
        ``Pb``): recover it from the neighbouring page that holds its keys
        — either a reorganized page's backup or the un-split original.

        Three post-paper wrinkles a long crashed episode produces:

        * a split whose triggering key fell in the low half gives that
          half to ``Pb``, so the lost child may be the *left* half and its
          keys sit to its right (:meth:`_repair_from_right`);
        * the *source* itself may be a lost page (a chain of splits all in
          the crashed window) — repair it first, recursively; the chain
          terminates because the episode's original page was durable;
        * the source may be intact with no keys in our range and no
          backup: then every key the lost child ever held belonged to the
          crashed (uncommitted) window, and the child is rebuilt empty.
        """
        if depth > 32:
            raise RecoveryError(
                f"page {child_no}: repair recursion too deep")
        if self._repair_from_right(parent, child_no, child_buf, child_view,
                                   bounds, level):
            return
        source_no = self._find_adjacent_source(parent, bounds)
        if source_no is None or source_no == child_no:
            # no page to the left at all: the leftmost child of the tree
            # was lost, so everything it held was uncommitted
            self._rebuild_empty_subtree(child_no, child_buf, child_view,
                                        level, INVALID_PAGE, None,
                                        low=bounds.lo)
            return
        sbuf = self.file.pin(source_no)
        try:
            sview = NodeView(sbuf.data, self.page_size)
            if not valid_magic(sbuf.data) or sview.level != level:
                # the source is lost too: repair it with its own expected
                # range, then fall through to re-inspect it
                sparent, s_bounds = self._source_parent_entry(parent, bounds)
                try:
                    self._repair_lost_child(sparent, source_no, sbuf, sview,
                                            s_bounds, level, depth + 1)
                finally:
                    self._unpin(sparent.buffer)
            if sview.prev_n_keys and sview.new_page == child_no:
                # case (c): the reorganized page's backup holds our keys
                self._regenerate_sibling(source_no, sbuf, sview, child_no,
                                         child_buf, child_view)
            elif sview.n_keys and sview.max_key() >= bounds.lo:
                # case (e): the source is the un-split original page; redo
                # its split, which regenerates this child as a side effect
                src_bounds = KeyBounds(MIN_KEY, bounds.lo)
                self._redo_split_of_wide_child(
                    parent.page_no, parent.slot - 1, sbuf, sview,
                    src_bounds, child_no)
                if is_zeroed(child_buf.data):
                    raise RecoveryError(
                        f"page {child_no}: redo of page {source_no}'s "
                        "split did not regenerate it")
            else:
                # the source is consistent and our range is untouched by
                # any durable page: the child held only uncommitted keys
                self._rebuild_empty_subtree(child_no, child_buf, child_view,
                                            level, source_no, sview,
                                            low=bounds.lo)
                self._dirty(sbuf)
        finally:
            self._unpin(sbuf)

    def _repair_from_right(self, parent: PathEntry, child_no: int,
                           child_buf: Buffer, child_view: NodeView,
                           bounds: KeyBounds, level: int) -> bool:
        """Cases (c)/(e) for a lost *low* half: the page to the child's
        right is either the reorganized page whose backup holds the
        child's keys (``newPage`` names the child, live half high) or the
        un-split original, still holding keys below the range the parent
        now gives it.  Rebuild the child from it and return True; False
        when the right neighbour is neither."""
        source_no = self._sibling_across(parent, right=True)
        if source_no in (INVALID_PAGE, child_no):
            return False
        sbuf = self.file.pin(source_no)
        try:
            sview = NodeView(sbuf.data, self.page_size)
            if not valid_magic(sbuf.data) or sview.level != level:
                return False
            if sview.prev_n_keys:
                if sview.new_page != child_no or sview.live_is_low:
                    return False
                self._regenerate_sibling(source_no, sbuf, sview, child_no,
                                         child_buf, child_view)
            elif (bounds.hi is not None and sview.n_keys
                  and sview.min_key() < bounds.hi):
                self._redo_split_of_wide_child(
                    parent.page_no, parent.slot + 1, sbuf, sview,
                    KeyBounds(bounds.hi, None), child_no)
            else:
                return False
            return True
        finally:
            self._unpin(sbuf)

    def _source_parent_entry(self, parent: PathEntry,
                             bounds: KeyBounds) -> tuple[PathEntry, KeyBounds]:
        """A PathEntry/bounds pair describing the parent slot of the lost
        child's left neighbour (crossing into the left peer parent when the
        neighbour lives under a different internal page).

        The returned entry always owns one pin on its buffer — a second
        pin on the parent's own frame in the same-parent case — and the
        caller releases it once the repair returns.  (An earlier version
        unpinned the cross-parent frame immediately and kept reading its
        view on the assumption the pool would keep the page cached; the
        pool is free to evict or recycle an unpinned frame, so that read
        raced with eviction.)
        """
        if parent.slot > 0:
            s_bounds = self._child_bounds(parent.view, parent.slot - 1,
                                          parent.bounds)
            # second pin on the same frame: the caller unpins the entry's
            # buffer unconditionally, whichever branch built it
            self._pin(parent.page_no)
            return PathEntry(parent.page_no, parent.buffer, parent.bounds,
                             parent.slot - 1), s_bounds
        left_no = parent.view.left_peer
        if left_no == INVALID_PAGE:
            raise RecoveryError(
                f"page {parent.page_no}: lost source with no left parent")
        lbuf, lview = self._pin(left_no)
        try:
            slot = lview.n_keys - 1
            s_bounds = KeyBounds(lview.key_at(slot), bounds.lo)
            entry = PathEntry(left_no, lbuf,
                              KeyBounds(MIN_KEY, bounds.lo), slot)
        except BaseException:
            self._unpin(lbuf)
            raise
        return entry, s_bounds

    def _rebuild_empty_subtree(self, child_no: int, child_buf: Buffer,
                               child_view: NodeView, level: int,
                               source_no: int, sview: NodeView | None, *,
                               low: bytes) -> None:
        """Rebuild a lost child whose keys were all uncommitted: an empty
        leaf, or a minimal internal spine over an empty leaf.  The spine's
        entries carry *low*, the low bound of the child's range, not the
        minimum key: linked as its left neighbour's right peer, a page
        whose first key is the minimum would draw every key past that
        neighbour's last separator into a move right."""
        started = perf_counter()
        token = self._token()
        if level == 0:
            child_view.init_page(PAGE_LEAF, level=0, sync_token=token,
                                 shadow_items=False)
        else:
            # build an empty leaf plus single-entry internal pages up to
            # the lost child's level
            spine: list[int] = []
            for lvl in range(level):
                page_type = PAGE_LEAF if lvl == 0 else PAGE_INTERNAL
                new_no, new_buf, new_view = self._alloc(page_type, lvl)
                try:
                    if lvl > 0:
                        shadow = self._level_uses_shadow_items(lvl)
                        new_view.replace_items([I.pack_internal_item(
                            low, spine[-1], prev=0 if shadow else None)])
                    spine.append(new_no)
                finally:
                    self._unpin(new_buf)
            child_view.init_page(
                PAGE_INTERNAL, level=level, sync_token=token,
                shadow_items=self._level_uses_shadow_items(level))
            shadow = self._level_uses_shadow_items(level)
            child_view.replace_items([I.pack_internal_item(
                low, spine[-1], prev=0 if shadow else None)])
        if source_no != INVALID_PAGE and sview is not None:
            child_view.left_peer = source_no
            child_view.left_peer_token = token
            sview.right_peer = child_no
            sview.right_peer_token = token
        self._dirty(child_buf)
        self.engine.sync_state.note_split()
        self.repair_log.add(DetectionReport(
            Kind.ZEROED_CHILD, child_no, Action.VERIFIED_ONLY,
            detail="rebuilt empty (all keys were uncommitted)"),
            duration=perf_counter() - started)

    def _find_adjacent_source(self, parent: PathEntry,
                              bounds: KeyBounds) -> int | None:
        """The page that would hold a lost child's keys: the child of the
        parent entry immediately to the left (crossing to the left peer of
        the parent when the split straddled a parent boundary)."""
        slot = parent.slot
        if slot > 0:
            return parent.view.child_at(slot - 1)
        left_parent = parent.view.left_peer
        if left_parent == INVALID_PAGE:
            return None
        lbuf, lview = self._pin(left_parent)
        try:
            if lview.n_keys == 0:
                return None
            return lview.child_at(lview.n_keys - 1)
        finally:
            self._unpin(lbuf)

    def _redo_split_of_wide_child(self, parent_page: int, slot: int,
                                  child_buf: Buffer, child_view: NodeView,
                                  bounds: KeyBounds,
                                  sibling: int) -> None:
        """Cases (d)/(e): the page in this slot is the pre-split original
        (its keys overflow the range the parent expects).  Re-execute the
        reorganization: keep the expected range live, tuck the rest into
        the backup area, and point ``newPage`` at *sibling* — the page the
        parent already names for the other half.  If the sibling's image
        was also lost, it is regenerated from the fresh backup."""
        started = perf_counter()
        child_no = child_buf.page_no
        n = child_view.n_keys
        live, backup = [], []
        for blob in child_view.items():
            key = I.item_key(blob, 0)
            if bounds.contains(key) or (key == MIN_KEY
                                        and bounds.lo == MIN_KEY):
                live.append(blob)
            else:
                backup.append(blob)
        if not backup:
            raise RecoveryError(
                f"page {child_no}: flagged wide but no keys fall outside "
                "the expected range")
        live_is_low = (not live
                       or I.item_key(backup[0], 0) > I.item_key(live[-1], 0))
        if (child_view.shadow_items and live_is_low and live
                and bounds.hi is not None
                and I.item_key(backup[0], 0) > bounds.hi):
            live[-1] = self._narrowed_entry(live[-1], child_view.level - 1)
        old_left, old_right = child_view.left_peer, child_view.right_peer
        old_left_tok = child_view.left_peer_token
        old_right_tok = child_view.right_peer_token
        token = self._token()
        page_type = PAGE_LEAF if child_view.is_leaf else PAGE_INTERNAL
        shadow = child_view.shadow_items
        child_view.init_page(page_type, level=child_view.level,
                             sync_token=token, shadow_items=shadow)
        child_view.replace_items(live)
        child_view.write_backup(backup, prev_total=n,
                                live_is_low=live_is_low,
                                old_left_peer=old_left,
                                old_left_token=old_left_tok,
                                old_right_peer=old_right,
                                old_right_token=old_right_tok)
        child_view.new_page = sibling
        if live_is_low:
            child_view.left_peer = old_left
            child_view.left_peer_token = old_left_tok
            child_view.right_peer = sibling
            child_view.right_peer_token = token
        else:
            child_view.right_peer = old_right
            child_view.right_peer_token = old_right_tok
            child_view.left_peer = sibling
            child_view.left_peer_token = token
        self._dirty(child_buf)
        self.engine.sync_state.note_split()
        self.repair_log.add(DetectionReport(
            Kind.WIDE_CHILD, child_no, Action.REDID_SPLIT,
            parent_page=parent_page, slot=slot,
            detail=f"sibling={sibling} live_is_low={live_is_low}"),
            duration=perf_counter() - started)
        if sibling != INVALID_PAGE:
            sbuf = self.file.pin(sibling)
            try:
                sview = NodeView(sbuf.data, self.page_size)
                if not valid_magic(sbuf.data):
                    self._regenerate_sibling(child_no, child_buf, child_view,
                                             sibling, sbuf, sview)
                elif not sview.prev_n_keys:
                    # the surviving half takes the redone split's token, as
                    # the split stamped both: left older than this page, a
                    # later resolution of the backup would take it for a
                    # lost sibling and regenerate it over committed work
                    self._vet_intra_page(sibling, sbuf)
                    sview.sync_token = token
                    self._dirty(sbuf)
            finally:
                self._unpin(sbuf)
        self._verify_episode_around(child_no)

    def _narrowed_entry(self, blob: bytes, child_level: int) -> bytes:
        """The last live entry of a redone split of a page with prevPtrs,
        whose child's range the split cut at the parent's bound: the
        child now holds keys past it, which the sibling's children hold
        too, so the descent rebuilds the child for its narrowed range.
        Its own image is the source for that when it is intact — it held
        the whole range when the page's image was written — while the
        entry's prevPtr can name a page recycled since.  A lost child
        keeps the prevPtr."""
        child = I.item_child(blob, 0)
        cbuf = self.file.pin(child)
        try:
            intact = (valid_magic(cbuf.data)
                      and NodeView(cbuf.data, self.page_size).level
                      == child_level)
        finally:
            self._unpin(cbuf)
        if not intact:
            return blob
        return I.pack_internal_item(I.item_key(blob, 0), child, prev=child)

    # ------------------------------------------------------------------
    # the two-phase split (Section 3.4 steps (1)-(6))
    # ------------------------------------------------------------------

    def _split_and_insert(self, path: list[PathEntry], idx: int,
                          item: bytes, key: bytes,
                          fixup: tuple | None = None) -> None:
        entry = path[idx]
        view = entry.view
        if view.prev_n_keys:
            # the caller's reclamation check should have cleared this
            raise TreeError("split of a page still holding backup keys")
        original = view.items()
        blobs = list(original)
        if fixup is not None:
            # pending child redirection from the split below: applied to
            # the new halves only, never to this page's buffer or its
            # backup — the original items become the backup, and the
            # backup must be the true pre-split image for restore and
            # regeneration to be sound
            k1_slot, k1_child, *rest = fixup
            k1_key = I.item_key(blobs[k1_slot], 0)
            shadow = self._level_uses_shadow_items(view.level)
            if shadow:
                prev = (rest[0] if rest and rest[0] is not None
                        else I.item_prev(blobs[k1_slot], 0))
            else:
                prev = None
            blobs[k1_slot] = I.pack_internal_item(k1_key, k1_child,
                                                  prev=prev)
        n = len(blobs)
        if n < 2:
            raise TreeError("key too large to split a page around")
        h = self._split_point(view, n, view.search(key)[0] == n)
        low, high = blobs[:h], blobs[h:]
        sep = I.item_key(high[0], 0)
        new_in_high = key >= sep
        live_is_low = new_in_high
        live_blobs, pb_blobs = (low, high) if new_in_high else (high, low)
        # Pb's half as it stood before this split: with a redirection
        # applied, Pb's copy names the lower split's new page without
        # its new sibling, which only Pb's triggering entry names; a
        # page rebuilt from that copy would leave the sibling's keys
        # where only a move right reaches them
        backup_blobs = original[h:] if new_in_high else original[:h]
        token = self._token()
        self.splits.inc()
        page_type = PAGE_LEAF if view.is_leaf else PAGE_INTERNAL
        p_no = entry.page_no
        old_left, old_right = view.left_peer, view.right_peer
        old_left_tok = view.left_peer_token
        old_right_tok = view.right_peer_token
        # Pb goes between P and this neighbour
        self._release_backups_naming(
            p_no, old_right if live_is_low else old_left)

        # step (1b): Pb is allocated normally
        pb_no, pb_buf, pb_view = self._alloc(page_type, view.level)
        try:
            # step (2): half the keys to each page
            pb_view.replace_items(pb_blobs)

            # steps (1a)+(3): Pa in memory only, live half plus backup
            pa_data = bytearray(self.page_size)
            pa_view = NodeView(pa_data, self.page_size)
            pa_view.init_page(
                page_type, level=view.level, sync_token=token,
                shadow_items=self._level_uses_shadow_items(view.level))
            pa_view.replace_items(live_blobs)
            pa_view.write_backup(backup_blobs, prev_total=n,
                                 live_is_low=live_is_low,
                                 old_left_peer=old_left,
                                 old_left_token=old_left_tok,
                                 old_right_peer=old_right,
                                 old_right_token=old_right_tok)
            pa_view.new_page = pb_no

            # peer chain: Pb slots in next to Pa on the side of its half
            if live_is_low:
                pa_view.left_peer = old_left
                pa_view.left_peer_token = old_left_tok
                pa_view.right_peer, pa_view.right_peer_token = pb_no, token
                pb_view.left_peer, pb_view.left_peer_token = p_no, token
                pb_view.right_peer, pb_view.right_peer_token = (old_right,
                                                                token)
                self._restamp_neighbor(old_right, right_side=False,
                                       peer=pb_no, token=token)
            else:
                pa_view.right_peer = old_right
                pa_view.right_peer_token = old_right_tok
                pa_view.left_peer, pa_view.left_peer_token = pb_no, token
                pb_view.right_peer, pb_view.right_peer_token = p_no, token
                pb_view.left_peer, pb_view.left_peer_token = (old_left,
                                                              token)
                self._restamp_neighbor(old_left, right_side=True,
                                       peer=pb_no, token=token)

            # step (5): remap Pa onto P's disk location
            virtual = self.file.pool.allocate_virtual(pa_data)
            try:
                new_buf = self.file.pool.remap(virtual, entry.buffer)
            except BaseException:
                # remap validates before it mutates; a refused remap must
                # not strand the virtual frame's only pin
                self.file.pool.unpin(virtual)
                raise
            entry.buffer = new_buf
            self.engine.sync_state.note_split()

            # step (6): the key that caused the split goes to Pb
            pslot, found = pb_view.search(key)
            if found:
                raise TreeError(
                    f"split_and_insert on existing key {key.hex()}")
            pb_view.insert_item(pslot, item)

            if idx == 0:
                self._reorg_grow_root(entry, pb_no, sep, live_is_low)
            else:
                self._reorg_parent_update(path, idx - 1, p_no, pb_no, sep,
                                          live_is_low)
        finally:
            self._unpin(pb_buf)

    def _reorg_parent_update(self, path: list[PathEntry], pidx: int, p_no: int,
                       pb_no: int, sep: bytes, live_is_low: bool) -> None:
        parent = path[pidx]
        self._before_page_update(path, pidx)
        pview = parent.view
        k1 = parent.slot
        shadow_parent = pview.shadow_items
        k1_prev = pview.prev_at(k1) if shadow_parent else None
        if live_is_low:
            # K1 keeps pointing at P's slot (the low half); K2 -> Pb
            k2_item = I.pack_internal_item(
                sep, pb_no, prev=k1_prev if shadow_parent else None)
            redirect = None
        else:
            # the low half moved to Pb: redirect K1, and K2 names P's slot
            k2_item = I.pack_internal_item(
                sep, p_no, prev=k1_prev if shadow_parent else None)
            redirect = (k1, pb_no)
        slot, found = pview.search(sep)
        if found:
            raise TreeError(f"separator {sep.hex()} already in parent")
        if self._page_can_fit(parent.node, len(k2_item)):
            # single-page update: atomic at sync
            pview.insert_item(slot, k2_item)
            if redirect is not None:
                pview.set_child_at(*redirect)
            self._dirty(parent.buffer)
        else:
            # overflow: the redirection may only appear in the split's
            # results, never on the pre-split image (it becomes backup)
            self._split_and_insert(path, pidx, k2_item, sep,
                                   fixup=redirect)

    def _reorg_grow_root(self, old_root: PathEntry, pb_no: int, sep: bytes,
                   live_is_low: bool) -> None:
        """Root split: the reorganized half keeps the old root's page
        number (the remap), so the meta page's previous-root pointer can
        name it — a lost new root falls back to a page that still reaches
        every key (live half directly, the other half via newPage)."""
        self.root_splits.inc()
        p_no = old_root.page_no
        new_level = old_root.view.level + 1
        root_no, rbuf, rview = self._alloc(PAGE_INTERNAL, new_level)
        try:
            if live_is_low:
                entries = [I.pack_internal_item(MIN_KEY, p_no),
                           I.pack_internal_item(sep, pb_no)]
            else:
                entries = [I.pack_internal_item(MIN_KEY, pb_no),
                           I.pack_internal_item(sep, p_no)]
            rview.replace_items(entries)
        finally:
            self._unpin(rbuf)
        self._set_root(root_no, p_no, free_old="never",
                       height=new_level + 1)
