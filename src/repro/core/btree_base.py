"""Base B-link-tree machinery shared by all three index techniques.

:class:`BLinkTree` implements everything that is *common* to the normal,
shadow-paging, and page-reorganization trees: descent with expected-key-
range tracking, lookup, peer-pointer range scans, the insert/delete
templates, root management through the meta page (with the paper's
previous-root shadowing), empty-page reclamation, and a full-tree validator
used by the test suite.

Subclasses provide the technique-specific pieces through hooks:

``_split_and_insert``
    the page-split algorithm (Sections 3.3 / 3.4) including the parent
    update;
``_check_child``
    inter-page inconsistency detection + repair performed while stepping
    from a parent to a child (Section 3.3.1);
``_before_page_update``
    the page-reorganization reclamation check (Section 3.4);
``_follow_moves``
    Lehman-Yao style right-moves through ``newPage``/peer links
    (Sections 3.5 / 3.6).

Internal-page layout invariant: entry 0 of an internal page carries the
page's low separator (the minus-infinity sentinel on the leftmost spine),
and every entry's key is the low bound of its child's range.  The expected
range ``[lo, hi)`` for a child is therefore computable during descent —
exactly the information Section 3.3.1's detector compares against the keys
actually found on the child.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from operator import eq, gt, itemgetter, lt
from time import perf_counter
from typing import Iterator

from ..constants import INVALID_PAGE, PAGE_INTERNAL, PAGE_LEAF, PAGE_MAGIC
from ..obs import get_registry, get_trace
from ..errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    RecoveryError,
    TreeError,
)
from ..storage import (
    copy_page,
    is_zeroed,
    token_older,
    tokens_match,
    try_read_header,
    valid_magic,
)
from ..fastpath import FastPath
from ..storage.buffer_pool import Buffer
from ..storage.engine import StorageEngine
from ..storage.page import HEADER_SIZE, LINE_ENTRY_SIZE
from ..storage.pagefile import PageFile
from . import items as I
from .concurrency import schedule_point
from .detect import Action, DetectionReport, Kind, RepairLog
from .keys import CODECS, FULL_BOUNDS, MIN_KEY, TID, KeyBounds, KeyCodec
from .meta import MetaView
from .nodeview import DecodedNode, NodeView, node_of


class PathEntry:
    """One pinned page on the root-to-leaf path of a descent.

    Both faces of the page derive from the pinned buffer, so neither can
    outlive a remap or go stale across a version bump: ``node`` is the
    frame's decoded node (what reads use), ``view`` a byte-level
    :class:`NodeView` (what writers and repairs use).
    """

    __slots__ = ("page_no", "buffer", "bounds", "slot")

    def __init__(self, page_no: int, buffer: Buffer, bounds: KeyBounds,
                 slot: int = -1):
        self.page_no = page_no
        self.buffer = buffer
        self.bounds = bounds
        #: routing slot taken toward the child (internal pages)
        self.slot = slot

    @property
    def node(self) -> DecodedNode:
        return node_of(self.buffer)

    @property
    def view(self) -> NodeView:
        return NodeView(self.buffer.data)


class BLinkTree:
    """Abstract B-link tree over one page file.

    Concrete trees: :class:`~repro.core.normal.NormalBLinkTree`,
    :class:`~repro.core.shadow.ShadowBLinkTree`,
    :class:`~repro.core.reorg.ReorgBLinkTree`,
    :class:`~repro.core.hybrid.HybridBLinkTree`.
    """

    KIND = "abstract"
    #: do internal items carry a prevPtr field?
    SHADOW_ITEMS = False
    #: does descent verify inter-page links (the ~3 % overhead Table 1
    #: attributes to "verifying inter-page links in traversing the tree")?
    VERIFIES = True

    def __init__(self, engine: StorageEngine, file: PageFile,
                 codec: KeyCodec):
        self.engine = engine
        self.file = file
        self.codec = codec
        self.page_size = file.page_size
        self.repair_log = RepairLog()
        self.repair_log.bind_owner(kind=self.KIND, file_name=file.name,
                                   token_source=self._token)
        #: optional callable invoked when a reorg page must block for a
        #: sync before its backup can be reclaimed; defaults to asking the
        #: engine for a sync
        self.sync_hook = engine.sync
        reg = get_registry()
        self.splits = reg.counter("tree.splits", kind=self.KIND)
        self.root_splits = reg.counter("tree.root_splits", kind=self.KIND)
        self._m_moves_right = reg.counter("tree.moves_right", kind=self.KIND)
        self._h_split_seconds = reg.histogram("tree.split.seconds",
                                              kind=self.KIND)
        # pages already vetted for intra-page damage since this restart
        self._vetted: set[int] = set()
        # leaves whose membership in the current peer-pointer path has been
        # verified since this restart (Section 3.5.1's "mark the page to
        # avoid rechecking on subsequent insertions")
        self._peer_path_checked: set[int] = set()
        # verified root page number; invalidated by _set_root.  The root
        # image is checked once per process lifetime — a lost root can
        # only be discovered at restart, and restarts build a new tree
        # object
        self._root_cache: int | None = None
        # how this tree's searches were served (decoded list or bytes)
        self.fastpath = FastPath(kind=self.KIND, file_name=file.name)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, engine: StorageEngine, name: str,
               codec: str | KeyCodec = "uint32") -> "BLinkTree":
        """Create a new, empty index in file *name*."""
        codec_obj = CODECS[codec] if isinstance(codec, str) else codec
        file = engine.create_file(name)
        tree = cls(engine, file, codec_obj)
        mbuf = file.pin_meta()
        try:
            meta = MetaView(mbuf.data, tree.page_size)
            meta.init_meta(cls.KIND, codec_obj.name)
            file.mark_dirty(mbuf)
            # index creation is DDL: the empty meta page is committed with
            # a synchronous write, so a crash before the first data sync
            # reopens as a valid empty index
            file.disk.write_page(0, bytes(mbuf.data))
        finally:
            file.unpin(mbuf)
        return tree

    @classmethod
    def open(cls, engine: StorageEngine, name: str) -> "BLinkTree":
        """Open an existing index after a restart.

        This is the entire recovery path: read the meta page, restore the
        clean-shutdown freelist if one exists (erasing it durably first),
        recover a tree whose first sync never completed as the empty
        tree (O(1), DESIGN §5b.6), and return.  All structural repair
        happens lazily on first use.
        """
        file = engine.open_file(name)
        mbuf = file.pin_meta()
        try:
            meta = MetaView(mbuf.data, file.page_size)
            meta.check()
            if meta.tree_kind != cls.KIND:
                raise TreeError(
                    f"index {name!r} is a {meta.tree_kind} tree, "
                    f"not {cls.KIND}"
                )
            codec_obj = CODECS[meta.codec_name]
            tree = cls(engine, file, codec_obj)
            if meta.first_sync_pending:
                if engine.sync_state.predates_last_crash(meta.root_token):
                    # decided here, not on first descent: a sync that
                    # completes before then would clear the flag over the
                    # crashed window's root, and check(), fsck and the
                    # garbage collector read meta.root directly
                    tree._forget_uncommitted_tree(mbuf, meta)
                else:
                    # reopened in the incarnation that installed the root
                    tree._arm_first_sync_hook()
            entries = meta.load_freelist()
            if entries:
                # Section 3.3.3: the durable freelist must be erased before
                # any page on it is reallocated, otherwise a crash would
                # revalidate the old list and double-allocate.
                meta.erase_freelist()
                file.disk.write_page(0, bytes(mbuf.data))
                file.freelist.load_entries(entries)
            return tree
        finally:
            file.unpin(mbuf)

    def close_clean(self) -> None:
        """Persist the freelist snapshot ahead of a clean engine shutdown."""
        mbuf = self.file.pin_meta()
        try:
            meta = MetaView(mbuf.data, self.page_size)
            meta.store_freelist(self.file.freelist.entries())
            self.file.mark_dirty(mbuf)
        finally:
            self.file.unpin(mbuf)

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------

    def _token(self) -> int:
        return self.engine.sync_state.token()

    def _pin(self, page_no: int) -> tuple[Buffer, NodeView]:
        """Pin a page for byte-level work (writers, repairs)."""
        buf = self.file.pin(page_no)
        return buf, NodeView(buf.data, self.page_size)

    def _pin_node(self, page_no: int) -> tuple[Buffer, DecodedNode]:
        """Pin a page for reading."""
        buf = self.file.pin(page_no)
        return buf, node_of(buf)

    def _unpin(self, buf: Buffer) -> None:
        self.file.unpin(buf)

    def _dirty(self, buf: Buffer) -> None:
        self.file.mark_dirty(buf)

    def _alloc(self, page_type: int, level: int
               ) -> tuple[int, Buffer, NodeView]:
        """Allocate and format a page, pinned and dirty."""
        page_no = self.file.allocate()
        buf = self.file.pin(page_no)
        view = NodeView(buf.data, self.page_size)
        try:
            view.init_page(page_type, level=level, sync_token=self._token(),
                           shadow_items=self._level_uses_shadow_items(level))
        except BaseException:
            self._unpin(buf)
            raise
        self._dirty(buf)
        return page_no, buf, view

    def _level_uses_shadow_items(self, level: int) -> bool:
        """Whether internal items at *level* carry prevPtrs.  Uniform for
        the pure trees; the hybrid tree overrides per level."""
        return self.SHADOW_ITEMS and level > 0

    # ------------------------------------------------------------------
    # meta / root management
    # ------------------------------------------------------------------

    def _read_meta(self) -> tuple[Buffer, MetaView]:
        buf = self.file.pin_meta()
        return buf, MetaView(buf.data, self.page_size)

    @property
    def height(self) -> int:
        mbuf, meta = self._read_meta()
        try:
            return meta.height
        finally:
            self._unpin(mbuf)

    def _root_page(self) -> int:
        mbuf, meta = self._read_meta()
        try:
            return meta.root
        finally:
            self._unpin(mbuf)

    def _set_root(self, new_root: int, old_root: int, *,
                  free_old: str = "never",
                  height: int | None = None,
                  new_root_token: int | None = None,
                  old_durable: bool | None = None) -> None:
        """Update the meta root pointer with the paper's prev/current
        shadowing and prev-reuse rule (shadow split steps 2/3 applied to
        the root pointer).

        ``free_old``:
          * ``"never"`` — the old root remains live (normal in-place root
            growth; reorg remap keeps the slot);
          * ``"shadow"`` — the old root page is freed; it becomes the
            previous root if it was durable (*old_durable*, the root
            analogue of split step 2), otherwise the existing previous root
            is kept (step 3).

        ``new_root_token`` records the new root page's own sync token in
        the meta page; lost-root detection compares the page found in the
        root's slot against it.  It defaults to the current counter, which
        is correct for freshly allocated roots — a root *collapse* must
        pass the surviving child's (older) token instead.
        """
        mbuf, meta = self._read_meta()
        try:
            token = self._token()
            if old_root == INVALID_PAGE:
                # the tree's first root: it holds no committed key until a
                # sync completes (the first-sync invariant, DESIGN §5b)
                prev = INVALID_PAGE
                meta.first_sync_pending = True
                self._arm_first_sync_hook()
            elif free_old == "shadow":
                # a never-durable old root leaves the existing previous
                # root in place: that one is durable and holds every
                # committed key
                prev = old_root if old_durable else meta.prev_root
                self.file.free(old_root)
            else:
                prev = old_root
            meta.set_root(new_root, prev,
                          token if new_root_token is None
                          else new_root_token)
            if height is not None:
                meta.height = height
            self._dirty(mbuf)
            self.engine.sync_state.note_split()
            self._root_cache = None
        finally:
            self._unpin(mbuf)

    def _arm_first_sync_hook(self) -> None:
        hooks = self.engine.post_sync_hooks
        if self._first_sync_done not in hooks:
            hooks.append(self._first_sync_done)

    def _first_sync_done(self) -> None:
        """Post-sync hook while the meta page says ``first_sync_pending``:
        the sync that just completed made a root of this tree durable, so
        the flag is cleared on stable storage at once, with a synchronous
        write like index creation's — a later crash must not find it set
        (DESIGN §5b).  The durable image is patched rather than the frame
        written, so nothing uncommitted can ride along."""
        self.engine.post_sync_hooks.remove(self._first_sync_done)
        disk = self.file.disk
        image = bytearray(disk.read_page(0))
        MetaView(image, self.page_size).first_sync_pending = False
        disk.write_page(0, bytes(image))
        mbuf, meta = self._read_meta()
        try:
            meta.first_sync_pending = False
        finally:
            self._unpin(mbuf)

    def _load_root_checked(self) -> int:
        """Return the root page number, repairing a lost root image first
        (Section 3.3.2) if this tree verifies."""
        if self._root_cache is not None:
            return self._root_cache
        mbuf, meta = self._read_meta()
        try:
            root = meta.root
            if root == INVALID_PAGE or not self.VERIFIES:
                self._root_cache = root
                return root
            rbuf = self.file.pin(root)
            try:
                rview = NodeView(rbuf.data, self.page_size)
                if not self._root_intact(rbuf, rview, meta):
                    self._repair_root(meta, rbuf, rview)
                self._root_cache = root
                return root
            finally:
                self._unpin(rbuf)
        finally:
            self._unpin(mbuf)

    def _forget_uncommitted_tree(self, mbuf: Buffer, meta: MetaView) -> None:
        """The first-sync invariant (DESIGN §5b), applied at open: the
        durable meta page says no sync completed after this tree's first
        root was installed, and a crash has happened since — so no key in the tree was ever
        committed, whatever subset of the crashed sync reached the disk.
        Recover it as the empty tree, one with no root: the pages the
        crashed window wrote are orphans the garbage collector reclaims,
        and the next batch into the tree builds it afresh."""
        started = perf_counter()
        root = meta.root
        meta.set_root(INVALID_PAGE, INVALID_PAGE, self._token())
        meta.height = 0
        meta.first_sync_pending = False
        self._dirty(mbuf)
        self.engine.sync_state.note_split()
        self.repair_log.add(DetectionReport(
            Kind.LOST_ROOT, root, Action.VERIFIED_ONLY,
            detail="first sync never completed: recovered empty"),
            duration=perf_counter() - started)

    def _root_intact(self, rbuf: Buffer, rview: NodeView,
                     meta: MetaView) -> bool:
        # a zeroed page has no valid header, so the header check covers
        # the lost-image case cheaply (no full-page scan on the hot path)
        if not valid_magic(rbuf.data):
            return False
        if rview.page_type not in (PAGE_LEAF, PAGE_INTERNAL):
            return False
        # a recycled stale image necessarily predates the root change
        return not token_older(rview.sync_token, meta.root_token)

    def _repair_root(self, meta: MetaView, rbuf: Buffer,
                     rview: NodeView) -> None:
        """The new root image was lost: copy the previous root's page over
        it ("the prevChild page is copied directly to the child page"), or
        start from an empty leaf if no root existed before the failure."""
        started = perf_counter()
        prev = meta.prev_root
        if prev != INVALID_PAGE:
            pbuf = self.file.pin(prev)
            try:
                copy_page(rbuf.data, pbuf.data)
            finally:
                self._unpin(pbuf)
            rview.sync_token = self._token()
            # the copied image may advertise the crashed window's split
            # through newPage; restamping the token would make that stale
            # link look current, so drop it — the restored root already
            # holds every committed key itself
            rview.new_page = INVALID_PAGE
            action = Action.COPIED_PREV_ROOT
        else:
            rview.init_page(PAGE_LEAF, level=0, sync_token=self._token(),
                            shadow_items=False)
            action = Action.VERIFIED_ONLY
        self._dirty(rbuf)
        self.engine.sync_state.note_split()
        self.repair_log.add(DetectionReport(
            Kind.LOST_ROOT, rbuf.page_no, action,
            detail=f"prev_root={prev}"),
            duration=perf_counter() - started)
        self._after_root_repair(rbuf, rview)

    def _after_root_repair(self, rbuf: Buffer, rview: NodeView) -> None:
        """Hook for technique-specific cleanup of a root rebuilt from the
        previous root (the reorg tree resolves a copied-in backup here)."""

    def _create_first_root(self) -> int:
        page_no, buf, _view = self._alloc(PAGE_LEAF, 0)
        self._unpin(buf)
        self._set_root(page_no, INVALID_PAGE, height=1)
        return page_no

    # ------------------------------------------------------------------
    # descent
    # ------------------------------------------------------------------

    def _child_bounds(self, node: DecodedNode | NodeView, slot: int,
                      bounds: KeyBounds) -> KeyBounds:
        hi = node.key_at(slot + 1) if slot + 1 < node.n_keys else None
        return bounds.child(node.key_at(slot), hi)

    def _descend(self, key: bytes, *, stop_level: int = 0) -> list[PathEntry]:
        """Descend from the root toward *key*, verifying and repairing each
        parent→child step, until a page at *stop_level* is reached.  Every
        page on the returned path is pinned; the caller must run
        :meth:`_unpin_path`."""
        root = self._load_root_checked()
        if root == INVALID_PAGE:
            return []
        path: list[PathEntry] = []
        page_no = root
        bounds = FULL_BOUNDS
        fp = self.fastpath
        buf = self.file.pin(page_no)
        try:
            while True:
                page_no, buf, node, bounds = self._follow_moves(
                    page_no, buf, bounds, key)
                entry = PathEntry(page_no, buf, bounds)
                level = node.level
                if level == stop_level:
                    path.append(entry)
                    return path
                slot = node.route(key, fp)
                entry.slot = slot
                child_no = node.child_at(slot)
                child_bounds = self._child_bounds(node, slot, bounds)
                child_buf = self.file.pin(child_no)
                try:
                    schedule_point("pin_child", page=child_no)
                    if self.VERIFIES:
                        self._check_child(entry, child_no, child_buf,
                                          child_bounds, level - 1)
                    path.append(entry)
                except BaseException:
                    # the handler below only releases buf and path —
                    # child_buf is not theirs until the rebind (append
                    # fails, if at all, without mutating the list)
                    self._unpin(child_buf)
                    raise
                page_no, buf, bounds = child_no, child_buf, child_bounds
        except BaseException:
            self._unpin(buf)
            self._unpin_path(path)
            raise

    def _unpin_path(self, path: list[PathEntry]) -> None:
        for entry in path:
            self._unpin(entry.buffer)

    # hooks ---------------------------------------------------------------

    def _follow_moves(self, page_no: int, buf: Buffer, bounds: KeyBounds,
                      key: bytes
                      ) -> tuple[int, Buffer, DecodedNode, KeyBounds]:
        """Follow ``newPage``/peer right-moves from the pinned *buf*;
        returns where the descent ended up, pinned in place of *buf*, and
        that frame's current node.  The pin on *buf* is given up only
        once the moves have ended on another page: if they raise
        (:meth:`_check_move_progress`) it is still the caller's to
        release, and nothing else is held.  Default: stay put."""
        return page_no, buf, node_of(buf), bounds

    def _check_move_progress(self, hops: int, target: int) -> None:
        """Called by a :meth:`_follow_moves` that has made *hops* moves
        and is about to make another, to page *target*: more moves than
        the file has pages means the links lead round a cycle (ROADMAP
        item 1, repro E) — an error, where following them would never
        return.  The moves release the pin they took on the way out."""
        if hops > self.file.n_pages:
            raise TreeError(
                f"page {target}: move links cycle — {hops} moves from one "
                f"descent step in a file of {self.file.n_pages} pages")

    def _check_child(self, parent: PathEntry, child_no: int,
                     child_buf: Buffer, bounds: KeyBounds,
                     level: int) -> None:
        """Inter-page inconsistency detection + repair of the child the
        parent expects at *level* with keys in *bounds*.  Default: none."""

    def _before_page_update(self, path: list[PathEntry], idx: int) -> None:
        """Pre-update hook (the reorg reclamation check).  Default: none."""

    def _release_backups_naming(self, page_no: int, *peers: int) -> None:
        """Hook run before *page_no* leaves the tree or takes a new
        neighbour: the reorg tree resolves any backup on *peers* that
        names it.  Default: none."""

    def _split_and_insert(self, path: list[PathEntry], idx: int,
                          item: bytes, key: bytes) -> None:
        raise NotImplementedError

    @staticmethod
    def _split_point(view: NodeView, n: int, appends: bool) -> int:
        """How many of the *n* items a split of the page under *view*
        leaves on its left page: half of them, except when the item that
        overflowed it goes after every one (*appends*) and the page is the
        rightmost of its level — a right-edge load, whose left page will
        take no more keys, so it keeps four fifths (DESIGN §5o).  The
        right page keeps a fifth's room for a later out-of-order key."""
        if appends and view.right_peer == INVALID_PAGE:
            return max(1, n * 4 // 5)
        return n // 2

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def _page_reserve(self, level: int) -> int:
        """Free bytes an insert must leave on a page at *level* beyond the
        item and its line entry; the reorg tree keeps headroom for the
        backup record a future split will need."""
        return 0

    def _page_can_fit(self, node: DecodedNode, size: int) -> bool:
        """Insert-time fullness test."""
        return (node.upper - node.lower
                >= size + LINE_ENTRY_SIZE + self._page_reserve(node.level))

    def insert(self, value, tid: TID | tuple[int, int]) -> None:
        """Insert ``value -> tid``.  Duplicate keys raise
        :class:`DuplicateKeyError` (Section 2's uniqueness assumption)."""
        if not isinstance(tid, TID):
            tid = TID(*tid)
        rejected: list[int] = []
        self._insert_run([(self.codec.encode(value), tid, 0)], 0, rejected)
        if rejected:
            raise DuplicateKeyError(
                f"key {value!r} already present; POSTGRES would have "
                "made it unique with make_unique()")

    def lookup(self, value) -> TID | None:
        """Find the TID stored for *value*, or None."""
        key = self.codec.encode(value)
        path = self._descend(key)
        if not path:
            return None
        try:
            node = node_of(path[-1].buffer)
            slot, found = node.search(key, self.fastpath)
            return node.tid_of(slot, key) if found else None
        finally:
            self._unpin_path(path)

    def update(self, value, tid: TID | tuple[int, int]) -> bool:
        """Point *value* at *tid*, inserting it when it is absent; returns
        True when an existing entry was replaced.

        One descent and one leaf write, through the insert path's steps
        (:meth:`_insert_run`).  A present key has its item's six TID
        bytes rewritten in place (:meth:`NodeView.set_tid_at`): the leaf
        keeps its header, line table and keys, so every image a sync can
        persist holds the key — with the old TID or the new one — and
        recovery, which reasons about keys and ranges and never TIDs,
        sees the key set an insert of a present key would have left.
        Deleting and re-inserting instead would expose a state holding
        neither, which a sync forced in between (Section 3.4's case 1)
        can make durable.  An absent key is inserted."""
        if not isinstance(tid, TID):
            tid = TID(*tid)
        replaced: list[int] = []
        self._insert_run([(self.codec.encode(value), tid, 0)], 0, replaced,
                         replace=True)
        return bool(replaced)

    def delete(self, value) -> None:
        """Remove *value* from the index; empty pages are reclaimed the
        Lanin-Shasha way (the page is recycled once its last key goes)."""
        rejected: list[int] = []
        self._delete_run([(self.codec.encode(value), 0)], 0, rejected)
        if rejected:
            raise KeyNotFoundError(f"key {value!r} not in index")

    # ------------------------------------------------------------------
    # batched operations (one descent amortized across a leaf's keys)
    # ------------------------------------------------------------------

    def insert_many(self, pairs) -> int:
        """Insert many ``(value, tid)`` pairs; returns the number stored.

        The batch is applied in encoded-key order (a stable sort, so of
        two equal keys the caller's first wins), one leaf-run at a time.
        Every key is searched once: a key already present is skipped and
        the rest of the batch still applies, exactly as the same
        sequence of single inserts would leave the index.  If any were
        skipped, one :class:`DuplicateKeyError` is raised at the end
        whose ``positions`` are their indices in *pairs*, ascending.
        A tree with no root yet is built bottom-up instead
        (:meth:`build_from_sorted`): the same keys, rejections and
        error, on full pages.
        """
        encode = self.codec.encode
        batch: list[tuple[bytes, TID, int]] = []
        for pos, (value, tid) in enumerate(pairs):
            if not isinstance(tid, TID):
                tid = TID(*tid)
            batch.append((encode(value), tid, pos))
        batch.sort(key=itemgetter(0))
        n = len(batch)
        if self._load_root_checked() == INVALID_PAGE:
            rejected = self.build_from_sorted(batch)
        else:
            rejected = []
            i = 0
            while i < n:
                i = self._insert_run(batch, i, rejected)
        if rejected:
            rejected.sort()
            raise DuplicateKeyError(
                f"{len(rejected)} of {n} keys already present "
                f"(batch positions {rejected})", rejected)
        return n

    def delete_many(self, values) -> int:
        """Delete many values; returns the count removed.  Twin of
        :meth:`insert_many`: a value not in the index is skipped, the
        rest are removed, and one :class:`KeyNotFoundError` carrying the
        skipped ``positions`` is raised at the end."""
        encode = self.codec.encode
        batch = sorted(((encode(value), pos)
                        for pos, value in enumerate(values)),
                       key=itemgetter(0))
        rejected: list[int] = []
        i = 0
        n = len(batch)
        while i < n:
            i = self._delete_run(batch, i, rejected)
        if rejected:
            rejected.sort()
            raise KeyNotFoundError(
                f"{len(rejected)} of {n} keys not in index "
                f"(batch positions {rejected})", rejected)
        return n

    def build_from_sorted(self, batch: list[tuple[bytes, TID, int]]
                          ) -> list[int]:
        """Build this tree, which has no root yet, bottom-up from *batch*:
        ``(key, tid, position)`` entries in key order, as
        :meth:`insert_many` prepares them.  Of equal keys the first is
        stored; the positions of the others are returned in key order —
        what inserting the keys one at a time would have rejected.

        Leaves are packed left to right as full as an insert would leave
        them, :meth:`_page_reserve` included, and chained through their
        peer links; each internal level is built the same way over the
        level below, its entries carrying ``prevPtr = INVALID_PAGE`` (no
        durable page ever held these keys).  Nothing is reachable until
        the meta page's root pointer moves, last; until a sync completes
        after that, a crash recovers the tree empty (DESIGN §5n).
        """
        if self._load_root_checked() != INVALID_PAGE:
            raise TreeError("build_from_sorted needs a tree with no root")
        rejected: list[int] = []
        entries: list[tuple[bytes, bytes]] = []
        last = None
        for key, tid, pos in batch:
            if key == last:
                rejected.append(pos)
            else:
                entries.append((key, I.pack_leaf_item(key, tid)))
                last = key
        if not entries:
            return rejected
        level = 0
        pages = self._build_level(level, entries)
        while len(pages) > 1:
            level += 1
            prev = (INVALID_PAGE if self._level_uses_shadow_items(level)
                    else None)
            pages = self._build_level(level, [
                (low, I.pack_internal_item(low, page_no, prev=prev))
                for low, page_no in pages])
        self._set_root(pages[0][1], INVALID_PAGE, height=level + 1)
        return rejected

    def _build_level(self, level: int, entries: list[tuple[bytes, bytes]]
                     ) -> list[tuple[bytes, int]]:
        """Write ``(key, item)`` *entries*, in key order, onto new pages at
        *level*: each page takes items while an insert would still fit the
        next one, and the pages are linked as peers.  Returns each page's
        low key — ``MIN_KEY`` for the first — and page number."""
        budget = self.page_size - HEADER_SIZE - self._page_reserve(level)
        starts = [0]
        used = 0
        for i, (_key, item) in enumerate(entries):
            need = len(item) + LINE_ENTRY_SIZE
            if used + need > budget and i > starts[-1]:
                starts.append(i)
                used = 0
            used += need
        lows = [MIN_KEY] + [entries[i][0] for i in starts[1:]]
        pages = [self.file.allocate() for _low in lows]
        ends = starts[1:] + [len(entries)]
        token = self._token()
        page_type = PAGE_LEAF if level == 0 else PAGE_INTERNAL
        shadow = self._level_uses_shadow_items(level)
        for k, page_no in enumerate(pages):
            buf, view = self._pin(page_no)
            try:
                view.init_page(page_type, level=level, sync_token=token,
                               shadow_items=shadow)
                view.replace_items(
                    [item for _key, item in entries[starts[k]:ends[k]]])
                view.left_peer = pages[k - 1] if k else INVALID_PAGE
                view.left_peer_token = token
                view.right_peer = (pages[k + 1] if k + 1 < len(pages)
                                   else INVALID_PAGE)
                view.right_peer_token = token
                self._dirty(buf)
            finally:
                self._unpin(buf)
        return list(zip(lows, pages))

    def _insert_run(self, batch: list[tuple[bytes, TID, int]], i: int,
                    rejected: list[int], *, replace: bool = False) -> int:
        """Insert ``batch[i]`` and each following entry its leaf is
        provably responsible for; returns the index of the first entry
        not consumed.  This is the only code that inserts into a leaf:
        :meth:`insert` is the run of one, and so is :meth:`update`, which
        passes *replace* to have a key already present take the entry's
        TID in place (its position still goes to *rejected*).

        *batch* holds ``(key, tid, position)`` in key order.  One
        descent, one peer-path check and one reclamation check serve the
        whole run; each key is then searched once and leaves the bytes a
        single insert of it would (with more of the batch in hand,
        :meth:`_insert_stretch` writes several at a time).  A key already
        present has its position appended to *rejected* and the run
        carries on.  A key that does not fit splits the leaf with the
        path in hand, which ends the run (the split re-homes the pages
        under the path).
        """
        path = self._descend(batch[i][0])
        if not path:
            self._create_first_root()
            path = self._descend(batch[i][0])
        try:
            leaf = path[-1]
            self._ensure_peer_path(leaf)
            self._before_page_update(path, len(path) - 1)
            buf, view = leaf.buffer, leaf.view
            node = node_of(buf)
            node.for_writer()
            fp = self.fastpath
            reserve = self._page_reserve(0)
            n = len(batch)
            while True:
                key, tid, pos = batch[i]
                slot, found = node.search(key, fp)
                if found:
                    if replace:
                        view.set_tid_at(slot, tid)
                        self._dirty(buf)
                        node.note_update(buf)
                    rejected.append(pos)
                    i += 1
                else:
                    item = I.pack_leaf_item(key, tid)
                    room = node.upper - node.lower - reserve
                    if room < len(item) + LINE_ENTRY_SIZE:
                        started = perf_counter()
                        splits_before = self.splits.value
                        self._split_and_insert(path, len(path) - 1, item,
                                               key)
                        duration = perf_counter() - started
                        self._h_split_seconds.observe(duration)
                        get_trace().emit(
                            "split", file=self.file.name, page=leaf.page_no,
                            token=self._token(), duration=duration,
                            technique=self.KIND,
                            pages_split=self.splits.value - splits_before)
                        return i + 1
                    if i + 1 < n and node.keys:
                        i = self._insert_stretch(leaf, node, batch, i, slot,
                                                 item, room, rejected)
                    else:
                        view.insert_item(slot, item, node=node)
                        self._dirty(buf)
                        node.note_insert(buf, slot, key)
                        i += 1
                if i == n or not self._still_responsible(leaf, node,
                                                         batch[i][0]):
                    return i
                fp.batched_amortized += 1
        finally:
            self._unpin_path(path)

    def _insert_stretch(self, leaf: PathEntry, node: DecodedNode,
                        batch: list[tuple[bytes, TID, int]], i: int,
                        slot: int, item: bytes, room: int,
                        rejected: list[int]) -> int:
        """``batch[i]`` goes into *slot* of this leaf as *item*, leaving
        *room* bytes, and more of the batch is in hand: take with it every
        following key that is certainly this leaf's too and still fits,
        and write them all with one line-table shift
        (:meth:`NodeView.insert_run`) — the bytes, rejections and counts
        of the same keys inserted one at a time.  Stops short of a key
        that does not fit (the caller splits for it) and of one only
        :meth:`_still_responsible` can judge; returns its index."""
        keys = node.keys
        hi = leaf.bounds.hi
        top = None if node.right_peer == INVALID_PAGE else keys[-1]
        slots, items, new_keys = [slot], [item], [batch[i][0]]
        room -= len(item) + LINE_ENTRY_SIZE
        n = len(batch)
        j = i + 1
        while j < n:
            key, tid, pos = batch[j]
            if (hi is not None and key >= hi) \
                    or (top is not None and key > top):
                break
            slot = bisect_left(keys, key, slot)
            if (slot < len(keys) and keys[slot] == key) \
                    or key == new_keys[-1]:
                rejected.append(pos)
            else:
                item = I.pack_leaf_item(key, tid)
                room -= len(item) + LINE_ENTRY_SIZE
                if room < 0:
                    break
                slots.append(slot)
                items.append(item)
                new_keys.append(key)
            j += 1
        buf = leaf.buffer
        leaf.view.insert_run(slots, items, node)
        self._dirty(buf)
        node.note_insert_run(buf, slots, new_keys)
        self.fastpath.cache_hits += j - i - 1
        self.fastpath.batched_amortized += j - i - 1
        return j

    def _delete_run(self, batch: list[tuple[bytes, int]], i: int,
                    rejected: list[int]) -> int:
        """Delete twin of :meth:`_insert_run` over ``(key, position)``
        entries, and the only code that deletes from a leaf.  A key not
        found is recorded in *rejected*; a delete that empties a
        non-root leaf reclaims it with the path in hand, which ends the
        run."""
        path = self._descend(batch[i][0])
        if not path:
            # no root was ever created: nothing is in the index
            rejected.extend(pos for _key, pos in batch[i:])
            return len(batch)
        try:
            leaf = path[-1]
            self._ensure_peer_path(leaf)
            self._before_page_update(path, len(path) - 1)
            buf, view = leaf.buffer, leaf.view
            node = node_of(buf)
            node.for_writer()
            fp = self.fastpath
            n = len(batch)
            while True:
                key, pos = batch[i]
                slot, found = node.search(key, fp)
                if not found:
                    rejected.append(pos)
                    i += 1
                else:
                    if i + 1 < n and node.keys:
                        i = self._delete_stretch(leaf, node, batch, i, slot,
                                                 rejected)
                    else:
                        view.delete_item(slot, node=node)
                        self._dirty(buf)
                        node.note_delete(buf, slot)
                        i += 1
                    if node.n_keys == 0 and len(path) > 1:
                        self._reclaim_empty_page(path, len(path) - 1)
                        return i
                if i == n or not self._still_responsible(leaf, node,
                                                         batch[i][0]):
                    return i
                fp.batched_amortized += 1
        finally:
            self._unpin_path(path)

    def _delete_stretch(self, leaf: PathEntry, node: DecodedNode,
                        batch: list[tuple[bytes, int]], i: int, slot: int,
                        rejected: list[int]) -> int:
        """Delete twin of :meth:`_insert_stretch`: ``batch[i]`` sits in
        *slot*; take with it every following key that is certainly this
        leaf's, and remove them with one line-table shift.  Stops after
        the leaf's last key (what follows it depends on the key that then
        becomes the last, or on the leaf being empty); returns the index
        of the first entry not consumed."""
        keys = node.keys
        hi = leaf.bounds.hi
        last = len(keys) - 1
        top = None if node.right_peer == INVALID_PAGE else keys[last]
        slots = [slot]
        n = len(batch)
        j = i + 1
        while j < n and slots[-1] != last:
            key, pos = batch[j]
            if (hi is not None and key >= hi) \
                    or (top is not None and key > top):
                break
            slot = bisect_left(keys, key, slot)
            if slot <= last and keys[slot] == key and slot != slots[-1]:
                slots.append(slot)
            else:
                rejected.append(pos)
            j += 1
        buf = leaf.buffer
        leaf.view.delete_run(slots, node)
        self._dirty(buf)
        node.note_delete_run(buf, slots)
        self.fastpath.cache_hits += j - i - 1
        self.fastpath.batched_amortized += j - i - 1
        return j

    @staticmethod
    def _still_responsible(leaf: PathEntry, node: DecodedNode,
                           key: bytes) -> bool:
        """Whether the leaf a run descended to is provably *key*'s page
        as well: inside the range its parent promised it, and not past
        its last key while it has a right peer — that is move-right
        territory, which only a descent's ``_follow_moves`` decides."""
        return leaf.bounds.contains(key) and (
            node.right_peer == INVALID_PAGE or not node.n_keys
            or key <= node.max_key())

    def range_scan(self, lo=None, hi=None) -> Iterator[tuple[object, TID]]:
        """Yield ``(value, tid)`` pairs with ``lo <= value < hi`` in key
        order, walking the leaf peer-pointer chain (Section 3.5)."""
        lo_key = MIN_KEY if lo is None else self.codec.encode(lo)
        hi_key = None if hi is None else self.codec.encode(hi)
        path = self._descend(lo_key)
        if not path:
            return
        leaf = path[-1]
        page_no = leaf.page_no
        # release the internal pages; keep only the leaf pinned
        for entry in path[:-1]:
            self._unpin(entry.buffer)
        buf = leaf.buffer
        decode = self.codec.decode
        try:
            node = node_of(buf)
            slot, _found = node.search(lo_key, self.fastpath)
            last_key = None
            while True:
                # one bulk decode of the slots this leaf contributes; the
                # lists are this scan's own copies, so a consumer that
                # writes to the leaf between two yields cannot shift them
                # under the loop
                n_keys = node.n_keys
                stop = (n_keys if hi_key is None
                        else max(slot, node.lower_bound(hi_key)))
                for key, tid in zip(*node.leaf_slice(slot, stop)):
                    if last_key is None or key > last_key:
                        # a post-crash healed link can land on a leaf that
                        # overlaps what a stale dual-path page already
                        # yielded (Figure 3); resume strictly after it
                        yield decode(key), tid
                        last_key = key
                if stop < n_keys:
                    return
                nxt = self._next_leaf(page_no, buf)
                if nxt is None:
                    return
                self._unpin(buf)
                buf = None
                page_no = nxt
                buf = self.file.pin(page_no)
                node = node_of(buf)
                slot = 0
        finally:
            if buf is not None:
                self._unpin(buf)

    def walk_leaf_chain(self) -> int:
        """Cross every link of the leaf peer chain, left to right, and
        return how many keys a full :meth:`range_scan` would yield.

        This is the scan as recovery needs it — a leaf at a time.  Every
        link goes through :meth:`_next_leaf`, so the Section 3.5.1 token
        check runs and a broken link is healed exactly as under a scan,
        but a leaf is counted off its bytes — the header's ``n_keys`` and
        its two end keys — with no key list decoded, so the validator's
        decode is the sweep's only one.  The count follows the scan's
        overlap rule: a leaf contributes the keys strictly after the last
        one counted, which only Figure 3's stale dual path makes fewer
        than all of them; a byte search finds where they start."""
        path = self._descend(MIN_KEY)
        if not path:
            return 0
        for entry in path[:-1]:
            self._unpin(entry.buffer)
        page_no, buf = path[-1].page_no, path[-1].buffer
        seen = 0
        last_key = None
        try:
            while True:
                node = node_of(buf)
                n = node.n_keys
                if n:
                    if not node.keys_decodable():
                        # raises what reading this page's keys always did
                        node.all_keys()
                    high = node.max_key()
                    if last_key is None or high > last_key:
                        if last_key is not None \
                                and node.min_key() <= last_key:
                            n -= node.lower_bound(last_key + b"\x00")
                        seen += n
                        last_key = high
                nxt = self._next_leaf(page_no, buf)
                if nxt is None:
                    return seen
                self._unpin(buf)
                buf = None
                page_no = nxt
                buf = self.file.pin(page_no)
        finally:
            if buf is not None:
                self._unpin(buf)

    def _next_leaf(self, page_no: int, buf: Buffer) -> int | None:
        """The next leaf in the scan.  Verifying trees check that the
        next page links back, with the same sync token on both sides of
        the link (Section 3.5.1), and heal a broken link through the
        root-to-leaf path."""
        node = node_of(buf)
        nxt = node.right_peer
        if nxt == INVALID_PAGE:
            return None
        if not self.VERIFIES:
            return nxt
        nbuf, nnode = self._pin_node(nxt)
        try:
            # a link holds when the page it names links back, with the
            # same token: two repairs of adjacent pages can each leave a
            # matching token on a link the other one moved
            broken = (nnode.magic != PAGE_MAGIC
                      or nnode.left_peer != page_no
                      or not tokens_match(nnode.left_peer_token,
                                          node.right_peer_token))
            if not broken:
                return nxt
        finally:
            self._unpin(nbuf)
        return self._heal_right_link(page_no, buf,
                                     NodeView(buf.data, self.page_size))

    def _heal_right_link(self, page_no: int, buf: Buffer,
                         view: NodeView) -> int | None:
        """A peer link failed its token check: find the true right
        neighbour through the root-to-leaf path and relink (3.5.1)."""
        if view.n_keys == 0:
            return None
        started = perf_counter()
        probe = view.max_key() + b"\x00"
        path = self._descend(probe)
        try:
            leaf = path[-1]
            past = leaf.page_no != page_no
            # the probe still routes here: the true right neighbour is
            # found along the internal path
            target = (leaf.page_no if past
                      else self._neighbor_leaf(path, left=False))
        finally:
            self._unpin_path(path)
        if past and not self._routes_here(page_no, view):
            # an orphan: the walk goes on to its true neighbour, and
            # nothing is written
            return target
        self._finish_heal(page_no, buf, view, target, started=started)
        return target if target != INVALID_PAGE else None

    def _routes_here(self, page_no: int, view: NodeView) -> bool:
        """Whether a descent toward the lowest key of leaf *page_no* ends
        on it.  A leaf that fails is not part of the tree: the orphan half
        of a split whose parent update a crash lost, reached through a
        stale link whose tokens still match (Figure 3).  A walk may go on
        from it to the true neighbour, but relinking that neighbour back
        to it would splice the orphan into the chain in place of the live
        page it shadows; the first modification near the live page
        splices the stale path out instead (Section 3.5.1)."""
        path = self._descend(view.min_key())
        try:
            return path[-1].page_no == page_no
        finally:
            self._unpin_path(path)

    def _finish_heal(self, page_no: int, buf: Buffer, view: NodeView,
                     target: int, *, left: bool = False,
                     started: float | None = None) -> None:
        """Link leaf *page_no* to *target* on its left or right side, with
        a current token on both ends of the link, and log the relink."""
        token = self._token()
        if left:
            view.left_peer, view.left_peer_token = target, token
        else:
            view.right_peer, view.right_peer_token = target, token
        self._dirty(buf)
        self._restamp_neighbor(target, right_side=left, peer=page_no,
                               token=token)
        self.engine.sync_state.note_split()
        self.repair_log.add(DetectionReport(
            Kind.PEER_TOKEN_MISMATCH, page_no, Action.RELINKED_PEER,
            detail=f"{'left' if left else 'right'} -> {target}"),
            duration=None if started is None
            else perf_counter() - started)

    def _ensure_peer_path(self, leaf: PathEntry) -> None:
        """Section 3.5.1's first-insert check against Figure 3's worst
        case: before the first post-crash modification of a leaf, verify
        the leaf is linked into the *current* peer-pointer path.

        "When inserting a key into page P, the DBMS first checks that P's
        split token is greater than the last crash sync token.  If so, we
        know the page is part of a consistent peer pointer path. ...
        Otherwise, the DBMS must follow the peer pointer path in both
        directions from the leaf page targeted for insert.  The search
        stops when a page with a different sync token is discovered."

        Every link walked is verified by its pair of link tokens; a
        mismatched link is repaired through the root-to-leaf path, which
        splices stale pre-split pages out of the chain before the paths
        can diverge in content.
        """
        if not self.VERIFIES:
            return
        page_no = leaf.page_no
        if page_no in self._peer_path_checked:
            return
        state = self.engine.sync_state
        # pages (re)initialized since recovery carry tokens at or above the
        # recovery-init value; only pre-crash pages need the walk
        episode_token = leaf.node.sync_token
        if state.in_current_incarnation(episode_token):
            self._peer_path_checked.add(page_no)
            return
        started = perf_counter()
        view = leaf.view
        self._walk_and_verify(leaf.page_no, leaf.buffer, view,
                              episode_token, left=False)
        self._walk_and_verify(leaf.page_no, leaf.buffer, view,
                              episode_token, left=True)
        self._peer_path_checked.add(page_no)
        self.repair_log.add(DetectionReport(
            Kind.PEER_PATH_CHECK, page_no, Action.VERIFIED_ONLY,
            detail=f"token={episode_token}"),
            duration=perf_counter() - started)

    def _verify_episode_around(self, page_no: int) -> None:
        """Run the Section 3.5.1 walk around a page that a repair just
        rebuilt.  The rebuilt page's own links are fresh, but its
        neighbourhood belongs to the crashed split episode, whose boundary
        links may still be stale-but-matching (Figure 3); walking now
        splices the stale path out before the region diverges."""
        if not self.VERIFIES or page_no in self._peer_path_checked:
            return
        buf = self.file.pin(page_no)
        try:
            view = NodeView(buf.data, self.page_size)
            self._walk_and_verify(page_no, buf, view, None, left=False)
            self._walk_and_verify(page_no, buf, view, None, left=True)
            self._peer_path_checked.add(page_no)
        finally:
            self._unpin(buf)

    def _walk_and_verify(self, page_no: int, buf: Buffer, view: NodeView,
                         episode_token: int | None, *, left: bool) -> None:
        """Walk one direction from *page_no*, verifying (and healing) each
        link's token pair.

        The walk continues across pages of the same split episode *and*
        across pages repaired since the crash (their links were rebuilt
        fresh on both sides, so they can bridge the interior of a damaged
        episode), and stops on reaching an intact page from an older
        episode — the paper's "page with a different sync token".  With
        ``episode_token=None`` (repair-triggered walks from a fresh page)
        the episode binds lazily to the first pre-crash token crossed."""
        state = self.engine.sync_state
        owned = False  # whether buf is ours to unpin
        seen = {page_no}
        try:
            while True:
                nxt = view.left_peer if left else view.right_peer
                our_token = (view.left_peer_token if left
                             else view.right_peer_token)
                if nxt == INVALID_PAGE or nxt in seen:
                    return
                seen.add(nxt)
                nbuf = self.file.pin(nxt)
                try:
                    nview = NodeView(nbuf.data, self.page_size)
                    dead = not valid_magic(nbuf.data)
                    their_token = None if dead else (
                        nview.right_peer_token if left
                        else nview.left_peer_token)
                    if dead or not tokens_match(their_token, our_token):
                        self._unpin(nbuf)
                        nbuf = None
                        if left:
                            healed = self._heal_left_link(page_no, buf,
                                                          view)
                        else:
                            healed = self._heal_right_link(page_no, buf,
                                                           view)
                        if healed is None:
                            return
                        nxt = healed
                        nbuf = self.file.pin(nxt)
                        nview = NodeView(nbuf.data, self.page_size)
                    already_checked = nxt in self._peer_path_checked
                    tok = nview.sync_token
                    if episode_token is None \
                            and state.predates_last_crash(tok):
                        episode_token = tok  # lazy bind, repair-time walks
                    keep_going = (tokens_match(tok, episode_token)
                                  if episode_token is not None else False) \
                        or state.in_current_incarnation(tok)
                    if not keep_going or already_checked:
                        # do not mark a page we merely stop at: only pages
                        # we walk *through* have both their links verified
                        self._unpin(nbuf)
                        return
                    self._peer_path_checked.add(nxt)
                except BaseException:
                    # the finally below only owns buf; the peer frame is
                    # ours until the rebind hands it over
                    if nbuf is not None:
                        self._unpin(nbuf)
                    raise
                if owned:
                    self._unpin(buf)
                page_no, buf, view = nxt, nbuf, nview
                owned = True
        finally:
            if owned:
                self._unpin(buf)

    def _heal_left_link(self, page_no: int, buf: Buffer,
                        view: NodeView) -> int | None:
        """Mirror of :meth:`_heal_right_link`: find the true left
        neighbour through the root-to-leaf path and relink."""
        if view.n_keys == 0:
            return None
        started = perf_counter()
        probe = view.min_key()
        path = self._descend(probe)
        try:
            if path[-1].page_no != page_no:
                # an orphan (see _routes_here): leave the live page alone
                return None
            target = self._neighbor_leaf(path, left=True)
        finally:
            self._unpin_path(path)
        self._finish_heal(page_no, buf, view, target, left=True,
                          started=started)
        return target if target != INVALID_PAGE else None

    def _neighbor_leaf(self, path: list[PathEntry], *, left: bool) -> int:
        """The leaf beside the one a descent *path* reached: the child of
        the adjacent routing slot on that side at the lowest level that has
        one, followed down its facing spine to leaf level.  Each step is
        checked as a descent's is (:meth:`_check_child`), so a lost page on
        the way is rebuilt before a link is made to it.  INVALID_PAGE at
        the edge of the tree, or where the spine ends on an empty internal
        page."""
        for entry in reversed(path[:-1]):
            slot = entry.slot - 1 if left else entry.slot + 1
            if 0 <= slot < entry.view.n_keys:
                break
        else:
            return INVALID_PAGE
        step = PathEntry(entry.page_no, entry.buffer, entry.bounds, slot)
        pinned: list[Buffer] = []
        try:
            while True:
                node = step.node
                child_no = node.child_at(step.slot)
                bounds = self._child_bounds(node, step.slot, step.bounds)
                cbuf = self.file.pin(child_no)
                pinned.append(cbuf)
                self._check_child(step, child_no, cbuf, bounds,
                                  node.level - 1)
                child = node_of(cbuf)
                if child.is_leaf:
                    return child_no
                if child.n_keys == 0:
                    return INVALID_PAGE
                step = PathEntry(child_no, cbuf, bounds,
                                 child.n_keys - 1 if left else 0)
        finally:
            for buf in pinned:
                self._unpin(buf)

    def _link_into_chain(self, page_no: int, low: bytes) -> None:
        """Splice a leaf that a repair built on a fresh page between its
        true neighbours, found through the root-to-leaf path toward *low*,
        the low key of its range.  Its token is current, so no
        first-modification walk (:meth:`_ensure_peer_path`) would ever
        link it, and the neighbours' links still lead past it."""
        started = perf_counter()
        path = self._descend(low)
        try:
            if path[-1].page_no != page_no:
                return
            sides = [(self._neighbor_leaf(path, left=True), True),
                     (self._neighbor_leaf(path, left=False), False)]
        finally:
            self._unpin_path(path)
        buf, view = self._pin(page_no)
        try:
            for target, left in sides:
                if target != INVALID_PAGE:
                    self._finish_heal(page_no, buf, view, target, left=left,
                                      started=started)
        finally:
            self._unpin(buf)

    def _restamp_neighbor(self, neighbor: int, *, right_side: bool,
                          peer: int, token: int) -> None:
        """Point a peer-chain neighbour at a replacement page, restamping
        the link token on the neighbour's side (Section 3.5.1)."""
        if neighbor == INVALID_PAGE:
            return
        nbuf, nview = self._pin(neighbor)
        try:
            if right_side:
                nview.right_peer = peer
                nview.right_peer_token = token
            else:
                nview.left_peer = peer
                nview.left_peer_token = token
            self._dirty(nbuf)
        finally:
            self._unpin(nbuf)

    def _vet_intra_page(self, page_no: int, buf: Buffer) -> None:
        """Detect-on-first-use for intra-page damage: pages last written
        before the most recent crash are scanned once for duplicate
        line-table offsets (Section 3.3.1)."""
        if page_no in self._vetted:
            return
        self._vetted.add(page_no)
        if not self.engine.sync_state.predates_last_crash(
                node_of(buf).sync_token):
            return
        started = perf_counter()
        view = NodeView(buf.data, self.page_size)
        if view.find_intra_page_inconsistency() is not None:
            view.repair_intra_page()
            self._dirty(buf)
            self.repair_log.add(DetectionReport(
                Kind.INTRA_PAGE, page_no, Action.DELETED_DUPLICATE),
                duration=perf_counter() - started)

    def items(self) -> list[tuple[object, TID]]:
        """Everything in the index, in key order."""
        return list(self.range_scan())

    def __len__(self) -> int:
        return sum(1 for _ in self.range_scan())

    def __contains__(self, value) -> bool:
        return self.lookup(value) is not None

    # ------------------------------------------------------------------
    # empty-page reclamation (the merge mechanism)
    # ------------------------------------------------------------------

    def _reclaim_empty_page(self, path: list[PathEntry], idx: int) -> None:
        """Unlink the (now empty) page at ``path[idx]`` from its parent and
        the peer chain, then free it.  Recurses upward if the parent
        empties; collapses the root when it is left with one child."""
        entry = path[idx]
        parent = path[idx - 1]
        self._release_backups_naming(entry.page_no, entry.view.left_peer,
                                     entry.view.right_peer)
        self._before_page_update(path, idx - 1)
        pview = parent.view
        slot = parent.slot
        self._unlink_peers(entry)
        if slot == 0 and pview.n_keys > 1:
            # keep entry 0's sentinel/low separator: absorb entry 1's child
            # into slot 0, then drop entry 1 — every intermediate image
            # routes all keys somewhere
            pview.set_child_at(0, pview.child_at(1))
            self._absorb_slot_zero_aux(parent)
            pview.delete_item(1)
        else:
            pview.delete_item(slot)
        self._dirty(parent.buffer)
        self.engine.sync_state.note_split()
        self.file.free(entry.page_no)
        if pview.n_keys == 0 and idx - 1 > 0:
            self._reclaim_empty_page(path, idx - 1)
        elif idx - 1 == 0 and pview.n_keys == 1 and pview.level > 0:
            self._collapse_root(parent)

    def _absorb_slot_zero_aux(self, parent: PathEntry) -> None:
        """Shadow trees also move entry 1's prevPtr into slot 0; default
        trees have nothing extra to move."""
        pview = parent.view
        if pview.shadow_items:
            pview.set_prev_at(0, pview.prev_at(1))
            self._dirty(parent.buffer)

    def _unlink_peers(self, entry: PathEntry) -> None:
        """Splice the page out of the peer chain, restamping link tokens."""
        token = self._token()
        left, right = entry.view.left_peer, entry.view.right_peer
        if left != INVALID_PAGE:
            lbuf, lview = self._pin(left)
            try:
                lview.right_peer = right
                lview.right_peer_token = token
                self._dirty(lbuf)
            finally:
                self._unpin(lbuf)
        if right != INVALID_PAGE:
            rbuf, rview = self._pin(right)
            try:
                rview.left_peer = left
                rview.left_peer_token = token
                self._dirty(rbuf)
            finally:
                self._unpin(rbuf)

    def _collapse_root(self, root_entry: PathEntry) -> None:
        """The root has a single child left: make that child the root.

        The child keeps its own (possibly old) sync token, so that token —
        not the current counter — goes into the meta page as the value
        lost-root detection compares against.
        """
        child = root_entry.view.child_at(0)
        cbuf = self.file.pin(child)
        try:
            child_token = NodeView(cbuf.data, self.page_size).sync_token
        finally:
            self._unpin(cbuf)
        free_mode = "shadow" if self.VERIFIES else "never"
        old_durable = self.engine.sync_state.synced_since_init(
            root_entry.view.sync_token)
        self._set_root(child, root_entry.page_no,
                       free_old=free_mode,
                       height=max(self.height - 1, 1),
                       new_root_token=child_token,
                       old_durable=old_durable)
        if free_mode == "never":
            self.file.free(root_entry.page_no)

    # ------------------------------------------------------------------
    # first-use repair drive (recovery)
    # ------------------------------------------------------------------

    def drive_repairs(self) -> int:
        """Eagerly trigger every first-use repair a workload would hit.

        The paper repairs lazily: a damaged parent→child link is only
        detected (and fixed) when a descent steps through it, and a
        broken peer link only when a scan crosses it.  After a crash the
        recovery orchestrator wants the index *hot* — fully repaired —
        before its shard rejoins the group, so each pass has two halves,
        one per family of detector:

        * a descent toward every separator key any durable internal page
          names fires :meth:`_check_child` on every reachable child slot
          (one unit per separator, O(height) pages each);
        * :meth:`walk_leaf_chain` then fires the peer-link check of
          Section 3.5.1 on every leaf link (no key decode: a leaf is
          counted off its bytes).

        Repairs can restructure the tree, so passes repeat until one adds
        no repair report.  Nothing here costs a Python step per key.
        Returns the number of keys visible to the final chain walk.

        This is the stop-the-world form: it runs a :class:`RepairSweep`
        to completion in one call.  Instant restart instead steps the
        same sweep incrementally between foreground operations (the
        shard heal queue), because first-use checks already make every
        page a query touches safe.
        """
        sweep = self.repair_sweep()
        while not sweep.done:
            sweep.step(max_units=_SWEEP_DRAIN_CHUNK)
        return sweep.keys_seen

    def repair_sweep(self) -> "RepairSweep":
        """A resumable, subtree-granular handle over the repair drive."""
        return RepairSweep(self)

    def repair_units(self) -> list[bytes]:
        """The chunkable units of one repair pass: every separator key
        any durable internal page names (one unit = one descent, which
        fires :meth:`_check_child` down that subtree's spine).  Trees
        that do not verify links have nothing to descend for — their
        only repair surface is the chain walk the sweep runs at pass
        end."""
        return self._separator_keys() if self.VERIFIES else []

    def heal_unit(self, key: bytes) -> int:
        """Run one heal unit: descend toward *key*, firing the first-use
        detectors on that path.  Returns the repairs it triggered."""
        before = len(self.repair_log)
        if self.VERIFIES:
            self._unpin_path(self._descend(key))
        return len(self.repair_log) - before

    def _separator_keys(self) -> list[bytes]:
        """Every distinct separator key on any internal page in the
        file, reachable from the root or not (a stale pre-crash internal
        just forces an extra no-op descent)."""
        keys = {MIN_KEY}
        for page_no in range(1, self.file.n_pages):
            buf, node = self._pin_node(page_no)
            try:
                if node.magic == PAGE_MAGIC and node.page_type != PAGE_LEAF:
                    keys.update(node.all_keys())
            finally:
                self.file.unpin(buf)
        return sorted(keys)

    # ------------------------------------------------------------------
    # validation (tests)
    # ------------------------------------------------------------------

    def check(self, *, strict_tokens: bool = True,
              require_peer_chain: bool = True) -> list[tuple[bytes, TID]]:
        """Validate the whole tree; returns ``(key, tid)`` pairs in order.

        Checks: header sanity, sorted keys, separator containment,
        uniform leaf depth, peer-chain agreement with the in-order leaf
        sequence, and (optionally) matching sync tokens across peer links.

        ``require_peer_chain=False`` relaxes the chain==leaves equality:
        after a crash, a stale-but-internally-consistent dual path
        (Figure 3) may legally survive in regions no update has touched —
        it holds the same committed keys and is spliced out by the first
        insert or delete nearby (Section 3.5.1).
        """
        pairs: list[tuple[bytes, TID]] = []
        self._validate(pairs, strict_tokens, require_peer_chain)
        return pairs

    def verify(self, *, strict_tokens: bool = True,
               require_peer_chain: bool = True) -> int:
        """:meth:`check` for a caller that wants the verdict and not the
        pairs (recovery): the same walk, every same test and error, but no
        TID is decoded — so TID bytes that run off a page go unread — and
        no pair built.  Returns the number of keys."""
        return self._validate(None, strict_tokens, require_peer_chain)

    def _validate(self, pairs: list[tuple[bytes, TID]] | None,
                  strict_tokens: bool, require_peer_chain: bool) -> int:
        root = self._root_page()
        if root == INVALID_PAGE:
            return 0
        leaves: list[int] = []
        ends: list[bytes] = []
        root_buf, root_node = self._pin_node(root)
        try:
            n_keys = self._check_subtree(root, root_node, FULL_BOUNDS,
                                         root_node.level, leaves, ends,
                                         pairs)
        finally:
            self._unpin(root_buf)
        if require_peer_chain:
            self._check_peer_chain(leaves, strict_tokens=strict_tokens)
        # every leaf ascends strictly, so the whole key sequence can only
        # fall or repeat where one leaf's last key meets the next's first
        lasts, firsts = ends[1::2], ends[2::2]
        if any(map(gt, lasts, firsts)):
            raise TreeError("keys not globally sorted")
        if any(map(eq, lasts, firsts)):
            raise TreeError("duplicate keys present")
        return n_keys

    def _check_subtree(self, page_no: int, node: DecodedNode,
                       bounds: KeyBounds, level: int, leaves: list[int],
                       ends: list[bytes],
                       pairs: list[tuple[bytes, TID]] | None) -> int:
        """Validate the subtree under *page_no* and return its key count.

        The cost is per page, not per key: one bulk key decode (the
        frame's own list when a reader already paid for it) and one
        C-level pass over it.  Leaves append their page number to
        *leaves*, their first and last key to *ends*, and — only when the
        caller collects — their pairs to *pairs*."""
        if node.level != level:
            raise TreeError(
                f"page {page_no}: level {node.level}, expected {level}")
        is_leaf = node.is_leaf
        keys = node.all_keys()
        # entry 0 of an internal page carries the low separator;
        # containment is implied
        exempt = 0 if is_leaf else 1
        if exempt and keys and keys[0] != MIN_KEY \
                and keys[0] < bounds.lo:
            raise TreeError(
                f"page {page_no}: entry-0 separator below bounds")
        # strict ascent makes the two end keys bound every key between
        # them; which slot is at fault is worked out once one is
        ascending = all(map(lt, keys, keys[1:]))
        contained = len(keys) <= exempt or (
            bounds.contains(keys[exempt]) and bounds.contains(keys[-1]))
        if not (ascending and contained):
            _raise_key_fault(page_no, keys, exempt, bounds)
        if is_leaf:
            if pairs is not None:
                pairs.extend(zip(keys, node.all_tids()))
            leaves.append(page_no)
            if keys:
                ends += (keys[0], keys[-1])
            return len(keys)
        # the child walk pins other frames but writes none, so the lists
        # taken here stay this page's content throughout
        n_keys = 0
        for i, child_no in enumerate(node.all_children()):
            child_bounds = self._child_bounds(node, i, bounds)
            cbuf, cnode = self._pin_node(child_no)
            try:
                n_keys += self._check_subtree(child_no, cnode, child_bounds,
                                              level - 1, leaves, ends, pairs)
            finally:
                self._unpin(cbuf)
        return n_keys

    def _check_peer_chain(self, leaves: list[int], *,
                          strict_tokens: bool) -> None:
        if not leaves:
            return
        # forward walk must visit exactly the in-order leaves
        chain = []
        page_no = leaves[0]
        seen = set()
        while page_no != INVALID_PAGE:
            if page_no in seen:
                raise TreeError(f"peer chain cycles at page {page_no}")
            seen.add(page_no)
            chain.append(page_no)
            buf, node = self._pin_node(page_no)
            try:
                nxt = node.right_peer
                if strict_tokens and nxt != INVALID_PAGE:
                    nbuf, nnode = self._pin_node(nxt)
                    try:
                        if not tokens_match(nnode.left_peer_token,
                                            node.right_peer_token):
                            raise TreeError(
                                f"peer tokens disagree on link "
                                f"{page_no}->{nxt}")
                        if nnode.left_peer != page_no:
                            raise TreeError(
                                f"peer chain asymmetric: {page_no}->{nxt} "
                                f"but {nxt}<-{nnode.left_peer}")
                    finally:
                        self._unpin(nbuf)
            finally:
                self._unpin(buf)
            page_no = nxt
        if chain != leaves:
            raise TreeError(
                f"peer chain {chain} disagrees with in-order leaves {leaves}")

    # ------------------------------------------------------------------
    # debugging
    # ------------------------------------------------------------------

    def dump(self) -> str:  # pragma: no cover - debug aid
        """Multi-line structural dump of the whole tree."""
        root = self._root_page()
        if root == INVALID_PAGE:
            return "<empty tree>"
        lines: list[str] = []
        stack = [(root, 0)]
        while stack:
            page_no, indent = stack.pop()
            buf, view = self._pin(page_no)
            try:
                pad = "  " * indent
                lines.append(f"{pad}page {page_no}:")
                for text in view.describe().splitlines():
                    lines.append(f"{pad}  {text}")
                if not view.is_leaf:
                    for i in reversed(range(view.n_keys)):
                        stack.append((view.child_at(i), indent + 1))
            finally:
                self._unpin(buf)
        return "\n".join(lines)


def _raise_key_fault(page_no: int, keys: list[bytes], exempt: int,
                     bounds: KeyBounds) -> None:
    """Name the first offending key of a page that failed
    :meth:`BLinkTree._check_subtree`'s whole-page test.  Slot by slot,
    order is tested before containment, which the first *exempt* slots
    are spared."""
    lo, hi = bounds.lo, bounds.hi
    for i, key in enumerate(keys):
        if i and key <= keys[i - 1]:
            raise TreeError(f"page {page_no}: keys out of order at {i}")
        if i >= exempt and not bounds.contains(key):
            raise TreeError(
                f"page {page_no}: key {key.hex()} outside "
                f"[{lo.hex()}, {'inf' if hi is None else hi.hex()})")


# ----------------------------------------------------------------------
# resumable repair drive
# ----------------------------------------------------------------------

#: Units drained per :meth:`RepairSweep.step` when a caller wants the
#: whole sweep (``drive_repairs``) rather than interleaved chunks.
_SWEEP_DRAIN_CHUNK = 64


class RepairSweep:
    """Resumable, subtree-granular form of :meth:`BLinkTree.drive_repairs`.

    The stop-the-world drive descends toward every separator key and then
    walks the leaf chain — a restart stall proportional to the pages of
    the whole index.  Instant restart needs the same work *preemptible*:
    the sweep exposes it as a queue of units (one unit = one
    separator-key descent) that can be stepped a few at a time between
    foreground operations, with two extra properties:

    * **lazy seeding** — enumerating the units reads the header of every
      page of the file.  That is a small share of the sweep (about a
      tenth), but it is O(pages), so it is deferred to the first
      :meth:`step`: admission (reopen + open tree) stays O(1) in index
      size, which is the paper's restart-cost claim.
    * **access-frequency priority** — :meth:`promote` records a
      foreground access by encoded key; the unit whose subtree covers
      that key heals before colder units.  Under zipfian traffic the hot
      subtrees (the ones first-use checks would be repairing anyway) are
      verified first, so the window in which a query can hit an
      unhealed page shrinks fastest where it matters.

    Repairs restructure the tree, so when a pass's units drain the sweep
    walks the leaf chain (firing the peer-link checks) and re-seeds for
    another pass until one adds no new repair reports, up to
    ``MAX_PASSES`` — the same fixpoint :meth:`~BLinkTree.drive_repairs`
    always ran, just sliced.
    """

    MAX_PASSES = 4

    def __init__(self, tree: BLinkTree):
        self.tree = tree
        self.done = False
        self.passes = 0
        self.units_done = 0
        self.keys_seen = 0
        self._seeded = False
        self._pass_repairs_base = 0
        #: units not yet healed this pass
        self._pending: set[bytes] = set()
        #: ``(-hits, unit)`` heap over the pending units.  A promotion
        #: pushes a fresh entry instead of re-ordering, so an entry is
        #: live only while its unit is pending and its count is current;
        #: the heap is rebuilt before dead entries outnumber the units.
        self._heap: list[tuple[int, bytes]] = []
        #: unit key -> foreground hits recorded against its subtree
        self._hits: dict[bytes, int] = {}
        #: all units of the current pass, sorted (for cover lookups)
        self._unit_keys: list[bytes] = []
        #: accesses recorded before the first pass was seeded
        self._early_hits: dict[bytes, int] = {}

    # -- introspection -------------------------------------------------

    @property
    def seeded(self) -> bool:
        return self._seeded

    def pending(self) -> int:
        """Units left in the current pass (0 before seeding or when
        only the pass-end chain walk remains)."""
        return len(self._pending)

    # -- priority ------------------------------------------------------

    def promote(self, encoded_key: bytes) -> None:
        """Record a foreground access to *encoded_key*: the unit whose
        subtree covers it moves ahead of colder units."""
        if self.done:
            return
        if not self._seeded:
            self._early_hits[encoded_key] = \
                self._early_hits.get(encoded_key, 0) + 1
            return
        unit = self._covering_unit(encoded_key)
        if unit is not None and unit in self._hits:
            self._hits[unit] += 1
            if unit not in self._pending:
                return
            if len(self._heap) < 2 * len(self._unit_keys):
                heappush(self._heap, (-self._hits[unit], unit))
            else:
                self._order_pending()

    def _covering_unit(self, encoded_key: bytes) -> bytes | None:
        """The greatest unit key <= *encoded_key* (units include the
        minus-infinity sentinel, so a covering unit always exists when
        any units do)."""
        if not self._unit_keys:
            return None
        i = bisect_right(self._unit_keys, encoded_key) - 1
        return self._unit_keys[i] if i >= 0 else None

    # -- the sweep -----------------------------------------------------

    def step(self, max_units: int = 1) -> int:
        """Run up to *max_units* heal units (a pass-end chain walk
        counts as one unit).  Returns the units actually run; 0 once
        done."""
        did = 0
        while did < max_units and not self.done:
            if not self._seeded:
                self._seed_pass()
            if self._pending:
                self.tree.heal_unit(self._pop_hottest())
                self.units_done += 1
            else:
                self._finish_pass()
            did += 1
        return did

    def _seed_pass(self) -> None:
        self.passes += 1
        self._pass_repairs_base = len(self.tree.repair_log)
        units = self.tree.repair_units()
        self._unit_keys = list(units)
        self._pending = set(units)
        # carry heat across passes (and in the earliest accesses made
        # before seeding) so hot subtrees stay first after a re-seed
        old = self._hits
        self._hits = {u: old.get(u, 0) for u in units}
        if self._early_hits:
            for key, count in self._early_hits.items():
                unit = self._covering_unit(key)
                if unit is not None:
                    self._hits[unit] += count
            self._early_hits.clear()
        self._order_pending()
        self._seeded = True

    def _order_pending(self) -> None:
        self._heap = [(-self._hits[u], u) for u in self._pending]
        heapify(self._heap)

    def _pop_hottest(self) -> bytes:
        """Hottest pending unit; ties break toward the smallest key so a
        cold sweep degenerates to the deterministic ascending order the
        stop-the-world drive used."""
        while True:
            hits, unit = heappop(self._heap)
            if unit in self._pending and -hits == self._hits[unit]:
                self._pending.remove(unit)
                return unit

    def _finish_pass(self) -> None:
        """The pass's descents fired every parent→child detector; the
        chain walk fires the peer-link ones, a leaf at a time.  A pass
        that logged a repair may have restructured the tree, so it is
        followed by another."""
        self.keys_seen = self.tree.walk_leaf_chain()
        if len(self.tree.repair_log) == self._pass_repairs_base \
                or self.passes >= self.MAX_PASSES:
            self.done = True
        else:
            self._seed_pass()
