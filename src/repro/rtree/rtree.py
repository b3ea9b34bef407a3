"""A shadow-recoverable R-tree.

The paper (Section 1): "the same techniques can be used for R-trees
[Guttman], extensible hash indices, and other B-tree variants."  This
module transfers Technique One to Guttman's R-tree.

The transfer is striking because the *detection* predicate maps so
directly: where the B-tree parent knows "the minimum and maximum key
values that should be on P", the R-tree parent entry carries the child's
**minimum bounding rectangle** — so a parent→child step is verified by
checking that every rectangle actually on the child lies inside the MBR
the parent promised.  A zeroed, recycled, or out-of-bounds child is
rebuilt from the ``prevPtr`` page by copying the entries its MBR covers,
exactly the Section 3.3.2 repair.

One spatial wrinkle, documented in DESIGN.md: R-tree MBRs may overlap, so
a pre-split page's entry can fall inside *both* halves' MBRs.  Repairing
a lost half therefore may duplicate an entry that also survives on the
other half.  Duplicates carry the same TID, and
:meth:`RTreeIndex.search` deduplicates by TID — the R-tree version of
"recovery-time insertion of a second key which points to the same record
is detected and prevented".

Page layout: the shared 64-byte header, then a dense array of fixed-size
entries (no line table — rectangles are unordered):

* leaf entry: 4 float64 (xmin, ymin, xmax, ymax) + TID = 38 bytes,
  padded to 40;
* internal entry: rect + childPtr + prevPtr = 40 bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from time import perf_counter

from ..constants import INVALID_PAGE, PAGE_INTERNAL, PAGE_LEAF
from ..obs import get_registry, get_trace
from ..errors import KeyNotFoundError, RecoveryError, TreeError
from ..storage import copy_page, token_older, valid_magic
from ..storage import page as P
from ..storage.engine import StorageEngine
from ..core.detect import Action, DetectionReport, Kind, RepairLog
from ..core.keys import TID
from ..core.meta import MetaView
from ..core.nodeview import NodeView

_RECT = struct.Struct("<4d")
_LEAF_ENTRY = struct.Struct("<4dIHxx")     # rect, tid page, tid line, pad
_INT_ENTRY = struct.Struct("<4dII")        # rect, childPtr, prevPtr
ENTRY_SIZE = 40
assert _LEAF_ENTRY.size == ENTRY_SIZE == _INT_ENTRY.size


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle; degenerate (point) rects are fine."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise TreeError(f"malformed rectangle {self}")

    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def union(self, other: "Rect") -> "Rect":
        return Rect(min(self.xmin, other.xmin), min(self.ymin, other.ymin),
                    max(self.xmax, other.xmax), max(self.ymax, other.ymax))

    def intersects(self, other: "Rect") -> bool:
        return not (self.xmax < other.xmin or other.xmax < self.xmin
                    or self.ymax < other.ymin or other.ymax < self.ymin)

    def contains(self, other: "Rect") -> bool:
        return (self.xmin <= other.xmin and self.ymin <= other.ymin
                and self.xmax >= other.xmax and self.ymax >= other.ymax)

    def enlargement(self, other: "Rect") -> float:
        return self.union(other).area() - self.area()


EVERYTHING = Rect(float("-inf"), float("-inf"), float("inf"), float("inf"))


class _RNode:
    """Fixed-size-entry page view sharing the common header."""

    def __init__(self, buf: bytearray, page_size: int):
        self.buf = buf
        self.page_size = page_size

    # header passthroughs (same offsets as every other page)
    @property
    def n(self) -> int:
        return P.get_u16(self.buf, P.OFF_N_KEYS)

    @n.setter
    def n(self, value: int) -> None:
        P.set_u16(self.buf, P.OFF_N_KEYS, value)

    @property
    def level(self) -> int:
        return P.get_u16(self.buf, P.OFF_LEVEL)

    @property
    def page_type(self) -> int:
        return P.get_u8(self.buf, P.OFF_PAGE_TYPE)

    @property
    def is_leaf(self) -> bool:
        return self.page_type == PAGE_LEAF

    @property
    def sync_token(self) -> int:
        return P.get_u64(self.buf, P.OFF_SYNC_TOKEN)

    @sync_token.setter
    def sync_token(self, value: int) -> None:
        P.set_u64(self.buf, P.OFF_SYNC_TOKEN, value)

    def init(self, page_type: int, level: int, token: int) -> None:
        # view-layer wrapper over a caller-owned buffer; every caller
        # marks the frame dirty itself (_RNode never sees the pool)
        view = NodeView(self.buf, self.page_size)
        view.init_page(page_type, level=level, sync_token=token)  # lint: disable=R012

    def capacity(self) -> int:
        return (self.page_size - P.HEADER_SIZE) // ENTRY_SIZE

    def _off(self, index: int) -> int:
        return P.HEADER_SIZE + index * ENTRY_SIZE

    # leaf entries ---------------------------------------------------------

    def leaf_entry(self, index: int) -> tuple[Rect, TID]:
        x0, y0, x1, y1, page, line = _LEAF_ENTRY.unpack_from(
            self.buf, self._off(index))
        return Rect(x0, y0, x1, y1), TID(page, line)

    # internal entries ----------------------------------------------------------

    def int_entry(self, index: int) -> tuple[Rect, int, int]:
        x0, y0, x1, y1, child, prev = _INT_ENTRY.unpack_from(
            self.buf, self._off(index))
        return Rect(x0, y0, x1, y1), child, prev

    def set_int_entry(self, index: int, rect: Rect, child: int,
                      prev: int) -> None:
        _INT_ENTRY.pack_into(self.buf, self._off(index),
                             rect.xmin, rect.ymin, rect.xmax, rect.ymax,
                             child, prev)

    # shared -----------------------------------------------------------------

    def rect(self, index: int) -> Rect:
        x0, y0, x1, y1 = _RECT.unpack_from(self.buf, self._off(index))
        return Rect(x0, y0, x1, y1)

    def append(self, packer, *fields) -> None:
        index = self.n
        if index >= self.capacity():
            raise TreeError("R-tree page overflow (append past capacity)")
        packer.pack_into(self.buf, self._off(index), *fields)
        self.n = index + 1

    def remove(self, index: int) -> None:
        last = self.n - 1
        if index != last:
            off, loff = self._off(index), self._off(last)
            self.buf[off: off + ENTRY_SIZE] = \
                self.buf[loff: loff + ENTRY_SIZE]
        self.n = last

    def mbr(self) -> Rect | None:
        """The actual minimum bounding rectangle of this page's entries."""
        if self.n == 0:
            return None
        box = self.rect(0)
        for i in range(1, self.n):
            box = box.union(self.rect(i))
        return box


class RTreeIndex:
    """Shadow-recoverable R-tree over one page file."""

    KIND = "rtree"

    def __init__(self, engine: StorageEngine, file):
        self.engine = engine
        self.file = file
        self.page_size = file.page_size
        self.repair_log = RepairLog()
        self.repair_log.bind_owner(kind=self.KIND, file_name=file.name,
                                   token_source=self._token)
        self.splits = get_registry().counter("tree.splits", kind=self.KIND)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, engine: StorageEngine, name: str) -> "RTreeIndex":
        file = engine.create_file(name)
        index = cls(engine, file)
        root = index._new_node(PAGE_LEAF, 0)
        mbuf = file.pin_meta()
        try:
            meta = MetaView(mbuf.data, index.page_size)
            meta.init_meta("none", "bytes")
            meta.set_root(root, 0, index._token())
            meta.height = 1
            file.mark_dirty(mbuf)
            file.disk.write_page(0, bytes(mbuf.data))
        finally:
            file.unpin(mbuf)
        engine.sync_state.note_split()   # see ExtendibleHashIndex.create
        return index

    @classmethod
    def open(cls, engine: StorageEngine, name: str) -> "RTreeIndex":
        file = engine.open_file(name)
        mbuf = file.pin_meta()
        try:
            MetaView(mbuf.data, file.page_size).check()
        finally:
            file.unpin(mbuf)
        return cls(engine, file)

    def _token(self) -> int:
        return self.engine.sync_state.token()

    def _new_node(self, page_type: int, level: int) -> int:
        # a recycled page's stable image is all zeros, so a lost new image
        # fails _check_child's magic test like a never-written one: no 2-D
        # reuse rule is needed (DESIGN.md)
        page_no = self.file.allocate()
        buf = self.file.pin(page_no)
        try:
            _RNode(buf.data, self.page_size).init(page_type, level,
                                                  self._token())
            self.file.mark_dirty(buf)
        finally:
            self.file.unpin(buf)
        return page_no

    def _root(self) -> int:
        """The root page, repairing a lost root image on first use (the
        Section 3.3.2 meta prev/current rule, as in the B-tree)."""
        if getattr(self, "_root_cache", None) is not None:
            return self._root_cache
        mbuf = self.file.pin_meta()
        try:
            meta = MetaView(mbuf.data, self.page_size)
            root, prev, token = meta.root, meta.prev_root, meta.root_token
        finally:
            self.file.unpin(mbuf)
        rbuf = self.file.pin(root)
        try:
            node = _RNode(rbuf.data, self.page_size)
            intact = (valid_magic(rbuf.data)
                      and node.page_type in (PAGE_LEAF, PAGE_INTERNAL)
                      and not token_older(node.sync_token, token))
            if not intact:
                started = perf_counter()
                if prev != INVALID_PAGE:
                    pbuf = self.file.pin(prev)
                    try:
                        copy_page(rbuf.data, pbuf.data)
                    finally:
                        self.file.unpin(pbuf)
                    node.sync_token = self._token()
                    action = Action.COPIED_PREV_ROOT
                else:
                    node.init(PAGE_LEAF, 0, self._token())
                    action = Action.VERIFIED_ONLY
                self.file.mark_dirty(rbuf)
                self.engine.sync_state.note_split()
                self.repair_log.add(DetectionReport(
                    Kind.LOST_ROOT, root, action, detail=f"prev={prev}"),
                    duration=perf_counter() - started)
        finally:
            self.file.unpin(rbuf)
        self._root_cache = root
        return root

    # ------------------------------------------------------------------
    # verification + repair (the spatial Section 3.3.1/3.3.2)
    # ------------------------------------------------------------------

    def _check_child(self, parent: _RNode, parent_page: int, slot: int,
                     child_no: int, child_buf,
                     expected_level: int) -> _RNode:
        child = _RNode(child_buf.data, self.page_size)
        promised, _c, prev = parent.int_entry(slot)
        lost = (not valid_magic(child_buf.data)
                or child.page_type not in (PAGE_LEAF, PAGE_INTERNAL)
                or child.level != expected_level)
        if lost:
            self._repair_child(parent, slot, child_no, child, prev,
                               promised, expected_level)
            self.file.mark_dirty(child_buf)
            return child
        if child.n:
            actual = child.mbr()
            if not promised.contains(actual):
                # Unlike B-tree key ranges, MBRs are *widened* by inserts,
                # so a valid child legitimately escapes a parent whose
                # widening was lost in a crash.  A freed page is erased
                # before it is recycled, so a valid page of the right
                # level at this slot IS the child: heal the parent instead
                # of clobbering the child.
                started = perf_counter()
                self._widen_parent(parent_page, slot, actual)
                self.repair_log.add(DetectionReport(
                    Kind.RANGE_MISMATCH, child_no, Action.VERIFIED_ONLY,
                    parent_page=parent_page, slot=slot,
                    detail="parent MBR widened to re-cover the child"),
                    duration=perf_counter() - started)
        return child

    def _widen_parent(self, parent_page: int, slot: int,
                      actual: Rect) -> None:
        buf = self.file.pin(parent_page)
        try:
            live = _RNode(buf.data, self.page_size)
            box, c, p = live.int_entry(slot)
            live.set_int_entry(slot, box.union(actual), c, p)
            self.file.mark_dirty(buf)
        finally:
            self.file.unpin(buf)
        self.engine.sync_state.note_split()

    def _repair_child(self, parent: _RNode, slot: int, child_no: int,
                      child: _RNode, prev: int, promised: Rect,
                      level: int) -> None:
        started = perf_counter()
        kind = (Kind.ZEROED_CHILD if not valid_magic(child.buf)
                else Kind.RANGE_MISMATCH)
        if prev == INVALID_PAGE:
            if level != 0:
                raise RecoveryError(
                    f"R-tree page {child_no}: lost internal child with "
                    "no previous page")
            child.init(PAGE_LEAF, 0, self._token())
        else:
            pbuf = self.file.pin(prev)
            try:
                pnode = _RNode(pbuf.data, self.page_size)
                if not valid_magic(pbuf.data):
                    raise RecoveryError(
                        f"R-tree page {child_no}: prev page {prev} "
                        "unreadable")
                page_type = PAGE_LEAF if level == 0 else PAGE_INTERNAL
                child.init(page_type, level, self._token())
                for i in range(pnode.n):
                    rect = pnode.rect(i)
                    # intersects, not contains: a pre-split entry can
                    # straddle both halves' MBRs (rectangles do not
                    # partition); copying it into every intersecting half
                    # may duplicate it, and queries dedupe by TID
                    if not promised.intersects(rect):
                        continue
                    off = pnode._off(i)
                    blob = bytes(pnode.buf[off: off + ENTRY_SIZE])
                    child.buf[child._off(child.n):
                              child._off(child.n) + ENTRY_SIZE] = blob
                    child.n = child.n + 1
            finally:
                self.file.unpin(pbuf)
        self.engine.sync_state.note_split()
        self.repair_log.add(DetectionReport(
            kind, child_no, Action.REBUILT_FROM_PREV,
            detail=f"prev={prev} (MBR repair)"),
            duration=perf_counter() - started)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(self, query: Rect) -> list[tuple[Rect, TID]]:
        """Every entry whose rectangle intersects *query*.  Results are
        deduplicated by TID (crash repair can duplicate entries whose
        rects fall inside both split halves' MBRs)."""
        out: list[tuple[Rect, TID]] = []
        seen: set[TID] = set()
        stack: list[tuple[int, tuple | None]] = [(self._root(), None)]
        while stack:
            page_no, parent_info = stack.pop()
            buf = self.file.pin(page_no)
            try:
                node = _RNode(buf.data, self.page_size)
                if parent_info is not None:
                    pnode, ppage, slot, lvl = parent_info
                    node = self._check_child(pnode, ppage, slot, page_no,
                                             buf, lvl)
                if node.is_leaf:
                    for i in range(node.n):
                        rect, tid = node.leaf_entry(i)
                        if rect.intersects(query) and tid not in seen:
                            seen.add(tid)
                            out.append((rect, tid))
                else:
                    # snapshot the parent so repairs can consult its
                    # entries after this frame is unpinned
                    snapshot = _RNode(bytearray(buf.data), self.page_size)
                    for i in range(node.n):
                        rect, child, _prev = node.int_entry(i)
                        if rect.intersects(query):
                            stack.append((child,
                                          (snapshot, page_no, i,
                                           node.level - 1)))
            finally:
                self.file.unpin(buf)
        return out

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------

    def insert(self, rect: Rect, tid: TID) -> None:
        root = self._root()
        path: list[tuple[int, object, _RNode, int]] = []  # (page, buf, node, slot)
        page_no = root
        buf = self.file.pin(page_no)
        try:
            node = _RNode(buf.data, self.page_size)
            while not node.is_leaf:
                slot = self._choose_subtree(node, rect)
                child_no = node.int_entry(slot)[1]
                child_buf = self.file.pin(child_no)
                try:
                    child = self._check_child(node, page_no, slot, child_no,
                                              child_buf, node.level - 1)
                    path.append((page_no, buf, node, slot))
                except BaseException:
                    # the finally below releases buf and path, not the
                    # child frame we just pinned (append fails, if at
                    # all, without mutating the list)
                    self.file.unpin(child_buf)
                    raise
                page_no, buf, node = child_no, child_buf, child
            # widen ancestors' MBRs in place (single-field updates)
            for anc_page, anc_buf, anc_node, anc_slot in path:
                old, child, prev = anc_node.int_entry(anc_slot)
                if not old.contains(rect):
                    anc_node.set_int_entry(anc_slot, old.union(rect),
                                           child, prev)
                    self.file.mark_dirty(anc_buf)
            if node.n < node.capacity():
                node.append(_LEAF_ENTRY, rect.xmin, rect.ymin, rect.xmax,
                            rect.ymax, tid.page_no, tid.line)
                self.file.mark_dirty(buf)
            else:
                started = perf_counter()
                splits_before = self.splits.value
                self._split_and_insert(path, page_no, buf, node, rect,
                                       tid=tid)
                duration = perf_counter() - started
                get_trace().emit(
                    "split", file=self.file.name, page=page_no,
                    token=self._token(), duration=duration,
                    technique=self.KIND,
                    pages_split=self.splits.value - splits_before)
        finally:
            self.file.unpin(buf)
            for _p, anc_buf, _n, _s in path:
                self.file.unpin(anc_buf)

    def _choose_subtree(self, node: _RNode, rect: Rect) -> int:
        best, best_cost = 0, None
        for i in range(node.n):
            box = node.rect(i)
            cost = (box.enlargement(rect), box.area())
            if best_cost is None or cost < best_cost:
                best, best_cost = i, cost
        return best

    # ------------------------------------------------------------------
    # splits (shadow technique, quadratic seeds)
    # ------------------------------------------------------------------

    def _split_and_insert(self, path, page_no: int, buf, node: _RNode,
                          rect: Rect, *, tid: TID | None = None,
                          child_fields: tuple[int, int] | None = None,
                          fixup: tuple | None = None):
        """Split the full page and insert the new entry; propagate
        upward shadow-style."""
        entries = []
        for i in range(node.n):
            off = node._off(i)
            entries.append((node.rect(i),
                            bytes(node.buf[off: off + ENTRY_SIZE])))
        if fixup is not None:
            # pending K1 rewrite from the split below us: it must appear
            # in this page's split products only — this page's own buffer
            # becomes the durable recovery prev and must keep its true
            # pre-split content
            f_slot, f_mbr, f_child, f_prev = fixup
            blob = bytearray(ENTRY_SIZE)
            _INT_ENTRY.pack_into(blob, 0, f_mbr.xmin, f_mbr.ymin,
                                 f_mbr.xmax, f_mbr.ymax, f_child, f_prev)
            entries[f_slot] = (f_mbr, bytes(blob))
        if tid is not None:
            blob = bytearray(ENTRY_SIZE)
            _LEAF_ENTRY.pack_into(blob, 0, rect.xmin, rect.ymin, rect.xmax,
                                  rect.ymax, tid.page_no, tid.line)
            entries.append((rect, bytes(blob)))
        else:
            child, prev = child_fields
            blob = bytearray(ENTRY_SIZE)
            _INT_ENTRY.pack_into(blob, 0, rect.xmin, rect.ymin, rect.xmax,
                                 rect.ymax, child, prev)
            entries.append((rect, bytes(blob)))

        group_a, group_b = _quadratic_split(entries)
        token = self._token()
        p_durable = self.engine.sync_state.synced_since_init(
            node.sync_token)
        page_type = node.page_type
        level = node.level
        pa_no = self._fill_node(page_type, level, group_a)
        pb_no = self._fill_node(page_type, level, group_b)
        mbr_a = _group_mbr(group_a)
        mbr_b = _group_mbr(group_b)
        self.splits.inc()
        self.engine.sync_state.note_split()

        if not path:
            self._grow_root(page_no, pa_no, pb_no, mbr_a, mbr_b,
                            p_durable, level)
            return
        parent_page, parent_buf, parent, slot = path[-1]
        _old_mbr, _old_child, old_prev = parent.int_entry(slot)
        new_prev = page_no if p_durable else old_prev
        self.file.free(page_no)
        if parent.n < parent.capacity():
            # K1 rewrite + K2 append land on one page: atomic at sync
            parent.set_int_entry(slot, mbr_a, pa_no, new_prev)
            parent.append(_INT_ENTRY, mbr_b.xmin, mbr_b.ymin, mbr_b.xmax,
                          mbr_b.ymax, pb_no, new_prev)
            self.file.mark_dirty(parent_buf)
        else:
            # overflow: the K1 rewrite may only appear in the parent's
            # split products, never on its own (future prev) buffer
            self._split_and_insert(path[:-1], parent_page, parent_buf,
                                   parent, mbr_b,
                                   child_fields=(pb_no, new_prev),
                                   fixup=(slot, mbr_a, pa_no, new_prev))

    def _fill_node(self, page_type: int, level: int,
                   group: list[tuple[Rect, bytes]]) -> int:
        page_no = self._new_node(page_type, level)
        buf = self.file.pin(page_no)
        try:
            node = _RNode(buf.data, self.page_size)
            for i, (_rect, blob) in enumerate(group):
                node.buf[node._off(i): node._off(i) + ENTRY_SIZE] = blob
            node.n = len(group)
            self.file.mark_dirty(buf)
        finally:
            self.file.unpin(buf)
        return page_no

    def _grow_root(self, old_root: int, pa_no: int, pb_no: int,
                   mbr_a: Rect, mbr_b: Rect, p_durable: bool,
                   level: int) -> None:
        new_root = self._new_node(PAGE_INTERNAL, level + 1)
        mbuf = self.file.pin_meta()
        try:
            meta = MetaView(mbuf.data, self.page_size)
            prev_for_entries = old_root if p_durable else meta.prev_root
            rbuf = self.file.pin(new_root)
            try:
                rnode = _RNode(rbuf.data, self.page_size)
                rnode.append(_INT_ENTRY, mbr_a.xmin, mbr_a.ymin,
                             mbr_a.xmax, mbr_a.ymax, pa_no,
                             prev_for_entries)
                rnode.append(_INT_ENTRY, mbr_b.xmin, mbr_b.ymin,
                             mbr_b.xmax, mbr_b.ymax, pb_no,
                             prev_for_entries)
                self.file.mark_dirty(rbuf)
            finally:
                self.file.unpin(rbuf)
            prev = old_root if p_durable else meta.prev_root
            self.file.free(old_root)
            meta.set_root(new_root, prev, self._token())
            meta.height = level + 2
            self.file.mark_dirty(mbuf)
            self._root_cache = None
        finally:
            self.file.unpin(mbuf)

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------

    def delete(self, rect: Rect, tid: TID) -> None:
        """Remove the entry with exactly this (rect, tid)."""
        root = self._root()
        if self._delete_from(root, None, rect, tid):
            return
        raise KeyNotFoundError(f"no entry ({rect}, {tid})")

    def _delete_from(self, page_no: int, parent_info, rect: Rect,
                     tid: TID) -> bool:
        buf = self.file.pin(page_no)
        try:
            node = _RNode(buf.data, self.page_size)
            if parent_info is not None:
                pnode, ppage, slot = parent_info
                node = self._check_child(pnode, ppage, slot, page_no, buf,
                                         pnode.level - 1)
            if node.is_leaf:
                for i in range(node.n):
                    erect, etid = node.leaf_entry(i)
                    if etid == tid and erect == rect:
                        node.remove(i)
                        self.file.mark_dirty(buf)
                        return True
                return False
            for i in range(node.n):
                box, child, _prev = node.int_entry(i)
                if box.contains(rect) or box.intersects(rect):
                    snapshot = _RNode(bytearray(buf.data), self.page_size)
                    if self._delete_from(child, (snapshot, page_no, i),
                                         rect, tid):
                        return True
            return False
        finally:
            self.file.unpin(buf)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check(self) -> list[tuple[Rect, TID]]:
        """Validate MBR containment everywhere; return all leaf entries
        (possibly with repair-induced TID duplicates removed)."""
        out: list[tuple[Rect, TID]] = []
        seen: set[TID] = set()
        root = self._root()

        def walk(page_no: int, promised: Rect, level: int | None):
            buf = self.file.pin(page_no)
            try:
                node = _RNode(buf.data, self.page_size)
                if not valid_magic(buf.data):
                    raise TreeError(f"page {page_no} unreadable")
                if level is not None and node.level != level:
                    raise TreeError(f"page {page_no}: wrong level")
                actual = node.mbr()
                if actual is not None and not promised.contains(actual):
                    raise TreeError(
                        f"page {page_no}: MBR {actual} escapes promised "
                        f"{promised}")
                if node.is_leaf:
                    for i in range(node.n):
                        rect, tid = node.leaf_entry(i)
                        if tid not in seen:
                            seen.add(tid)
                            out.append((rect, tid))
                    return
                for i in range(node.n):
                    box, child, _prev = node.int_entry(i)
                    walk(child, box, node.level - 1)
            finally:
                self.file.unpin(buf)

        walk(root, EVERYTHING, None)
        return out

    def __len__(self) -> int:
        return len(self.check())


def _group_mbr(group: list[tuple[Rect, bytes]]) -> Rect:
    box = group[0][0]
    for rect, _blob in group[1:]:
        box = box.union(rect)
    return box


def _quadratic_split(entries: list[tuple[Rect, bytes]]):
    """Guttman's quadratic split."""
    worst, seeds = None, (0, 1)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            waste = (entries[i][0].union(entries[j][0]).area()
                     - entries[i][0].area() - entries[j][0].area())
            if worst is None or waste > worst:
                worst, seeds = waste, (i, j)
    a, b = seeds
    group_a = [entries[a]]
    group_b = [entries[b]]
    box_a, box_b = entries[a][0], entries[b][0]
    rest = [e for k, e in enumerate(entries) if k not in (a, b)]
    min_fill = max(1, len(entries) // 4)
    for entry in rest:
        remaining = len(rest) - (len(group_a) + len(group_b) - 2)
        if len(group_a) + remaining <= min_fill:
            group_a.append(entry)
            box_a = box_a.union(entry[0])
            continue
        if len(group_b) + remaining <= min_fill:
            group_b.append(entry)
            box_b = box_b.union(entry[0])
            continue
        da = box_a.enlargement(entry[0])
        db = box_b.enlargement(entry[0])
        if (da, box_a.area(), len(group_a)) <= (db, box_b.area(),
                                                len(group_b)):
            group_a.append(entry)
            box_a = box_a.union(entry[0])
        else:
            group_b.append(entry)
            box_b = box_b.union(entry[0])
    return group_a, group_b
