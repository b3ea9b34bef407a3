"""Typed access to one B-tree page buffer.

A :class:`NodeView` wraps the raw ``bytearray`` of a pinned buffer and
exposes the page as a sorted array of items behind a line table.  All
mutations write straight through to the underlying bytes, so a snapshot of
the buffer at *any* point between method calls is a plausible crash image —
which is exactly what the simulated sync captures.

Two operations implement byte-write orderings the paper specifies:

* :meth:`insert_item` follows Section 3.3's crash-safe line-table insert
  (copy the last entry one beyond, bump ``nKeys``, shift, then store the
  new entry) so that any intermediate image contains a *detectable*
  intra-page inconsistency: two adjacent line-table entries with the same
  offset.
* :meth:`delete_item` / :meth:`repair_intra_page` use Section 3.3.2's
  delete ordering (copy entries left until the duplicate is last, then
  decrement ``nKeys``).

Each has two forms that leave the same bytes.  With a ``step_hook`` the
protocol runs entry by entry, which is the only way its intermediate
images can be seen and the reference the tests compare against.  Without
one the shift is a single slice move, and :meth:`insert_run` /
:meth:`delete_run` write a whole sorted run with one line-table rewrite:
a sync snapshots whole pages between operations, never inside one (DESIGN
section 5m).

The reorg-tree **backup region** (Section 3.4) also lives here: backup
line-table entries sit just beyond the live entries, followed by a small
backup record holding the pre-split peer pointers needed to restore the
original page exactly.

:class:`DecodedNode` is the one decoded form of a page and hangs off the
buffer frame (:func:`node_of`).  Reads that do not change the page go
through it, and so does the leaf writer: ``BLinkTree._insert_run`` /
``_delete_run`` pass the frame's node to the mutators above, which take
the header fields they need from it instead of re-reading them and assign
the ones they changed back, so the node stays current across the write
(the sanitizer's node-against-bytes check on every unpin is what holds
them to it).  :class:`NodeView` is the byte-level writer and the
per-item reference decoder the node is checked against.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Iterator

from ..constants import (
    FLAG_LIVE_IS_LOW,
    FLAG_SHADOW_ITEMS,
    PAGE_INTERNAL,
    PAGE_LEAF,
)
from ..errors import PageCorruptError, PageError, PageFullError
from ..storage import page as P
from . import items as I
from .keys import TID

#: Pre-split peer pointers stashed with the backup keys (reorg split): the
#: original page's left/right peers and their link tokens.
_BACKUP_RECORD = struct.Struct("<IQIQ")
BACKUP_RECORD_SIZE = _BACKUP_RECORD.size  # 24

StepHook = Callable[[str], None]

_BACKUP_BLOCKS_INSERT = (
    "insert into a page holding backup keys; the caller must run the "
    "reclamation check first (paper section 3.4)")
_BACKUP_BLOCKS_DELETE = (
    "delete from a page holding backup keys; run the reclamation check "
    "first")

_U16 = struct.Struct("<H").unpack_from
_PUT16 = struct.Struct("<H").pack_into
_TIDS = struct.Struct("<IH")
#: every byte value in order: ``_BYTE_VALUES[:k]`` is the bytes below ``k``
_BYTE_VALUES = bytes(range(256))
#: The header fields a line-table mutation reads, in one unpack:
#: ``n_keys``, ``prev_n_keys``, ``lower``, ``upper``, ``backup_count``.
_WRITER_FIELDS = struct.Struct("<6xHH38xHHH").unpack_from
assert struct.calcsize("<6xHH38x") == P.OFF_LOWER


def _splice(into: list, base: int, slots: list[int], new: list) -> None:
    """Insert ``new[k]`` ahead of what was element ``slots[k] - base`` of
    *into* before any insertion (*slots* ascending)."""
    for k, slot in enumerate(slots):
        into.insert(slot - base + k, new[k])


def search_bytes(data, n: int, key: bytes) -> tuple[int, bool]:
    """Binary search of the first *n* line-table entries straight off the
    page bytes: leftmost index whose key >= *key*, and whether it is an
    exact match.  O(log n) item reads, nothing decoded beyond them."""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) >> 1
        off = _U16(data, P.HEADER_SIZE + 2 * mid)[0]
        if data[off + 2: off + 2 + _U16(data, off)[0]] < key:
            lo = mid + 1
        else:
            hi = mid
    if lo == n:
        return lo, False
    off = _U16(data, P.HEADER_SIZE + 2 * lo)[0]
    return lo, data[off + 2: off + 2 + _U16(data, off)[0]] == key


class NodeView:
    """A view over one page buffer.

    Parameters
    ----------
    buf:
        The page's ``bytearray`` (typically ``buffer.data``).
    page_size:
        Page size in bytes; needed because the buffer itself carries no
        length metadata beyond ``len``.
    """

    __slots__ = ("buf", "page_size")

    def __init__(self, buf: bytearray, page_size: int | None = None):
        self.buf = buf
        self.page_size = page_size if page_size is not None else len(buf)

    # ------------------------------------------------------------------
    # header fields (live reads/writes against the bytes)
    # ------------------------------------------------------------------

    @property
    def page_type(self) -> int:
        return P.get_u8(self.buf, P.OFF_PAGE_TYPE)

    @property
    def level(self) -> int:
        return P.get_u16(self.buf, P.OFF_LEVEL)

    @property
    def is_leaf(self) -> bool:
        return self.page_type == PAGE_LEAF

    @property
    def shadow_items(self) -> bool:
        return bool(self.flags & FLAG_SHADOW_ITEMS)

    @property
    def flags(self) -> int:
        return P.get_u8(self.buf, P.OFF_FLAGS)

    @flags.setter
    def flags(self, value: int) -> None:
        P.set_u8(self.buf, P.OFF_FLAGS, value)

    @property
    def n_keys(self) -> int:
        return P.get_u16(self.buf, P.OFF_N_KEYS)

    @n_keys.setter
    def n_keys(self, value: int) -> None:
        P.set_u16(self.buf, P.OFF_N_KEYS, value)

    @property
    def prev_n_keys(self) -> int:
        return P.get_u16(self.buf, P.OFF_PREV_N_KEYS)

    @prev_n_keys.setter
    def prev_n_keys(self, value: int) -> None:
        P.set_u16(self.buf, P.OFF_PREV_N_KEYS, value)

    @property
    def backup_count(self) -> int:
        return P.get_u16(self.buf, P.OFF_BACKUP_COUNT)

    @backup_count.setter
    def backup_count(self, value: int) -> None:
        P.set_u16(self.buf, P.OFF_BACKUP_COUNT, value)

    @property
    def new_page(self) -> int:
        return P.get_u32(self.buf, P.OFF_NEW_PAGE)

    @new_page.setter
    def new_page(self, value: int) -> None:
        P.set_u32(self.buf, P.OFF_NEW_PAGE, value)

    @property
    def left_peer(self) -> int:
        return P.get_u32(self.buf, P.OFF_LEFT_PEER)

    @left_peer.setter
    def left_peer(self, value: int) -> None:
        P.set_u32(self.buf, P.OFF_LEFT_PEER, value)

    @property
    def right_peer(self) -> int:
        return P.get_u32(self.buf, P.OFF_RIGHT_PEER)

    @right_peer.setter
    def right_peer(self, value: int) -> None:
        P.set_u32(self.buf, P.OFF_RIGHT_PEER, value)

    @property
    def sync_token(self) -> int:
        return P.get_u64(self.buf, P.OFF_SYNC_TOKEN)

    @sync_token.setter
    def sync_token(self, value: int) -> None:
        P.set_u64(self.buf, P.OFF_SYNC_TOKEN, value)

    @property
    def left_peer_token(self) -> int:
        return P.get_u64(self.buf, P.OFF_LEFT_PEER_TOKEN)

    @left_peer_token.setter
    def left_peer_token(self, value: int) -> None:
        P.set_u64(self.buf, P.OFF_LEFT_PEER_TOKEN, value)

    @property
    def right_peer_token(self) -> int:
        return P.get_u64(self.buf, P.OFF_RIGHT_PEER_TOKEN)

    @right_peer_token.setter
    def right_peer_token(self, value: int) -> None:
        P.set_u64(self.buf, P.OFF_RIGHT_PEER_TOKEN, value)

    @property
    def lower(self) -> int:
        return P.get_u16(self.buf, P.OFF_LOWER)

    @lower.setter
    def lower(self, value: int) -> None:
        P.set_u16(self.buf, P.OFF_LOWER, value)

    @property
    def upper(self) -> int:
        return P.get_u16(self.buf, P.OFF_UPPER)

    @upper.setter
    def upper(self, value: int) -> None:
        P.set_u16(self.buf, P.OFF_UPPER, value)

    @property
    def lsn(self) -> int:
        return P.get_u64(self.buf, P.OFF_LSN)

    @lsn.setter
    def lsn(self, value: int) -> None:
        P.set_u64(self.buf, P.OFF_LSN, value)

    @property
    def live_is_low(self) -> bool:
        return bool(self.flags & FLAG_LIVE_IS_LOW)

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------

    def init_page(self, page_type: int, *, level: int = 0,
                  sync_token: int = 0, shadow_items: bool = False) -> None:
        """Format the buffer as an empty page of the given type."""
        flags = FLAG_SHADOW_ITEMS if shadow_items else 0
        fresh = P.new_page(self.page_size, page_type, level=level,
                           flags=flags, sync_token=sync_token)
        self.buf[:] = fresh

    # ------------------------------------------------------------------
    # item access
    # ------------------------------------------------------------------

    def item_off(self, index: int) -> int:
        return P.get_line(self.buf, index)

    def key_at(self, index: int) -> bytes:
        return I.item_key(self.buf, P.get_line(self.buf, index))

    def tid_at(self, index: int) -> TID:
        return I.item_tid(self.buf, P.get_line(self.buf, index))

    def child_at(self, index: int) -> int:
        return I.item_child(self.buf, P.get_line(self.buf, index))

    def prev_at(self, index: int) -> int:
        return I.item_prev(self.buf, P.get_line(self.buf, index))

    def set_child_at(self, index: int, child: int) -> None:
        I.set_item_child(self.buf, P.get_line(self.buf, index), child)

    def set_prev_at(self, index: int, prev: int) -> None:
        I.set_item_prev(self.buf, P.get_line(self.buf, index), prev)

    def set_tid_at(self, index: int, tid: TID) -> None:
        """Rewrite the TID of leaf entry *index* in place: the item's six
        TID bytes change and nothing else on the page does — the header,
        the line table and every key stay as they were.  The leaf writer
        uses it for ``update``; the caller marks the buffer dirty."""
        I.set_item_tid(self.buf, P.get_line(self.buf, index), tid)

    def item_bytes_at(self, index: int) -> bytes:
        off = P.get_line(self.buf, index)
        if self.is_leaf:
            return I.leaf_item_bytes(self.buf, off)
        return I.internal_item_bytes(self.buf, off, self.shadow_items)

    def items(self) -> list[bytes]:
        """All live items, in line-table order: one line-table unpack and
        one pass over a snapshot.  A page that cannot be decoded that way
        is read item by item, which raises what it always raised."""
        n = self.n_keys
        if self.is_leaf:
            fixed = I.LEAF_OVERHEAD
        else:
            fixed = (I.SHADOW_OVERHEAD if self.shadow_items
                     else I.INTERNAL_OVERHEAD)
        try:
            offsets = struct.unpack_from("<%dH" % n, self.buf, P.HEADER_SIZE)
            snap = bytes(self.buf)
            return [snap[o: o + fixed + (snap[o] | snap[o + 1] << 8)]
                    for o in offsets]
        except _UNDECODABLE:
            return [self.item_bytes_at(i) for i in range(n)]

    def keys(self) -> Iterator[bytes]:
        for i in range(self.n_keys):
            yield self.key_at(i)

    def min_key(self) -> bytes:
        return self.key_at(0)

    def max_key(self) -> bytes:
        return self.key_at(self.n_keys - 1)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(self, key: bytes) -> tuple[int, bool]:
        """Leftmost index whose key >= *key*, and whether it is an exact
        match.  Index may equal ``n_keys`` (key greater than everything)."""
        return search_bytes(self.buf, self.n_keys, key)

    def route(self, key: bytes) -> int:
        """Routing slot on an internal page: the rightmost entry whose
        separator key is <= *key*.  Entry 0 normally carries the
        minus-infinity sentinel, so this is well defined for any key the
        descent can legitimately bring here."""
        index, found = self.search(key)
        # key below every separator: only legal for the leftmost path;
        # route to the first entry and let consistency checks complain
        # if this page should never have seen the key
        return index if found or index == 0 else index - 1

    # ------------------------------------------------------------------
    # space management
    # ------------------------------------------------------------------

    def free_space(self) -> int:
        """Contiguous free bytes between line table(s) and item heap."""
        return self.upper - self.lower

    def can_fit(self, item_size: int) -> bool:
        return self.free_space() >= item_size + P.LINE_ENTRY_SIZE

    def used_item_bytes(self) -> int:
        """Bytes referenced by live (and backup) line entries — the size
        the item heap would have after compaction."""
        total = 0
        for i in range(self.n_keys + self.backup_count):
            off = P.get_line(self.buf, i)
            total += I.item_size_at(self.buf, off, leaf=self.is_leaf,
                                    shadow=self.shadow_items)
        return total

    def compact(self) -> None:
        """Rewrite the item heap dropping dead item bytes.  Line-table
        order is preserved; offsets change."""
        entries = list(range(self.n_keys + self.backup_count))
        blobs = []
        for i in entries:
            off = P.get_line(self.buf, i)
            size = I.item_size_at(self.buf, off, leaf=self.is_leaf,
                                  shadow=self.shadow_items)
            blobs.append(bytes(self.buf[off: off + size]))
        upper = self.page_size
        for i, blob in zip(entries, blobs):
            upper -= len(blob)
            self.buf[upper: upper + len(blob)] = blob
            P.set_line(self.buf, i, upper)
        # zero the dead gap so stale key bytes cannot masquerade as items
        self.buf[self.lower: upper] = bytes(upper - self.lower)
        self.upper = upper

    def overwrite_region(self, offset: int, blob: bytes) -> None:
        """Overwrite raw bytes inside the item heap region in place.

        The no-overwrite heap uses this to stamp ``xmax`` into an existing
        tuple header.  Restricted to the item heap (``upper`` .. page end)
        so header and line-table updates keep going through the ordered
        mutators above; the caller still marks the buffer dirty.
        """
        if offset < self.upper or offset + len(blob) > self.page_size:
            raise PageError(
                f"overwrite_region [{offset}, {offset + len(blob)}) outside "
                f"the item heap [{self.upper}, {self.page_size})"
            )
        self.buf[offset: offset + len(blob)] = blob

    def set_dense_entry(self, index: int, entry_size: int,
                        blob: bytes) -> None:
        """Store a fixed-stride entry on a dense-array page.

        Pages that carry an unordered fixed-size array instead of a line
        table (the extendible hash directory) mutate entries through
        this; the header stays out of reach and the caller still marks
        the buffer dirty.
        """
        if len(blob) != entry_size:
            raise PageError(
                f"dense entry is {len(blob)} bytes, stride {entry_size}")
        offset = P.HEADER_SIZE + index * entry_size
        if offset < P.HEADER_SIZE or offset + entry_size > self.page_size:
            raise PageError(
                f"dense entry {index} (stride {entry_size}) outside the "
                f"page body [{P.HEADER_SIZE}, {self.page_size})")
        self.buf[offset: offset + entry_size] = blob

    def _store_item(self, item: bytes) -> int:
        upper = self.upper - len(item)
        if upper < self.lower + P.LINE_ENTRY_SIZE:
            raise PageFullError(
                f"item of {len(item)} bytes does not fit "
                f"(free={self.free_space()})"
            )
        self.buf[upper: upper + len(item)] = item
        self.upper = upper
        return upper

    # ------------------------------------------------------------------
    # crash-safe line-table mutation (Sections 3.3 / 3.3.2)
    # ------------------------------------------------------------------

    def insert_item(self, index: int, item: bytes,
                    step_hook: StepHook | None = None,
                    node: DecodedNode | None = None) -> None:
        """Insert *item* at line-table position *index*.

        The header fields come from *node* — the frame's decoded node, when
        the leaf writer holds it — or from one read of the bytes; *node*
        is left current (the caller still marks the buffer dirty and
        restamps it).  The final image is the one Section 3.3's stepped
        protocol leaves, which *step_hook* (tests only) runs entry by
        entry to let a harness capture the intermediate images.
        """
        if step_hook is not None:
            self._insert_item_stepped(index, item, step_hook)
            if node is not None:
                node.refresh(node.version)
            return
        buf = self.buf
        if node is None:
            n, prev_n, lower, upper, backup = _WRITER_FIELDS(buf, 0)
        else:
            n, prev_n, lower, upper, backup = (
                node.n_keys, node.prev_n_keys, node.lower, node.upper,
                node.backup_count)
        if not 0 <= index <= n:
            raise PageError(f"insert index {index} out of range 0..{n}")
        if prev_n:
            raise PageError(_BACKUP_BLOCKS_INSERT)
        size = len(item)
        need = size + P.LINE_ENTRY_SIZE
        if upper - lower < need:
            # try reclaiming dead item bytes before giving up
            if self.used_item_bytes() + need <= self.page_size - lower:
                self.compact()
                upper = self.upper
            if upper - lower < need:
                raise PageFullError(
                    f"no room for {size}-byte item (free={upper - lower})")
        upper -= size
        buf[upper: upper + size] = item
        _PUT16(buf, P.OFF_UPPER, upper)
        at = P.HEADER_SIZE + P.LINE_ENTRY_SIZE * index
        end = P.HEADER_SIZE + P.LINE_ENTRY_SIZE * n
        if at == end:
            _PUT16(buf, at, upper)
            _PUT16(buf, P.OFF_N_KEYS, n + 1)
        else:
            # the stepped protocol's shift as one slice move: its
            # intermediate states are only observable through a step hook
            # (crashes snapshot whole pages at sync time)
            buf[at + P.LINE_ENTRY_SIZE: end + P.LINE_ENTRY_SIZE] = buf[at:end]
            _PUT16(buf, P.OFF_N_KEYS, n + 1)
            _PUT16(buf, at, upper)
        lower = end + P.LINE_ENTRY_SIZE * (1 + backup)
        _PUT16(buf, P.OFF_LOWER, lower)
        if node is not None:
            node.n_keys = n + 1
            node.lower = lower
            node.upper = upper

    def _insert_item_stepped(self, index: int, item: bytes,
                             step_hook: StepHook) -> None:
        """Section 3.3's insert, one ordered byte write at a time: any
        mid-update snapshot shows either the old page or a page with a
        detectable duplicate line-table entry."""
        n = self.n_keys
        if not 0 <= index <= n:
            raise PageError(f"insert index {index} out of range 0..{n}")
        if self.prev_n_keys:
            raise PageError(_BACKUP_BLOCKS_INSERT)
        if not self.can_fit(len(item)):
            # try reclaiming dead item bytes before giving up
            if (self.used_item_bytes() + len(item) + P.LINE_ENTRY_SIZE
                    <= self.page_size - self.lower):
                self.compact()
            if not self.can_fit(len(item)):
                raise PageFullError(
                    f"no room for {len(item)}-byte item "
                    f"(free={self.free_space()})"
                )
        offset = self._store_item(item)
        step_hook("item-stored")
        if index == n:
            P.set_line(self.buf, n, offset)
            step_hook("line-written")
            self.n_keys = n + 1
        else:
            # (1) copy the last entry one element beyond the line table
            P.set_line(self.buf, n, P.get_line(self.buf, n - 1))
            step_hook("copied-last")
            # (2) increment nKeys
            self.n_keys = n + 1
            step_hook("incremented")
            # (3) copy entries between `index` and the last one right
            for j in range(n - 1, index, -1):
                P.set_line(self.buf, j, P.get_line(self.buf, j - 1))
                step_hook(f"shifted-{j}")
            # (4) store the new entry
            P.set_line(self.buf, index, offset)
        self.lower = P.line_offset(self.n_keys + self.backup_count)

    def delete_item(self, index: int,
                    step_hook: StepHook | None = None,
                    node: DecodedNode | None = None) -> None:
        """Delete the entry at *index*; the final image is the one the
        paper's copy-left-then-decrement ordering leaves (*step_hook* runs
        it entry by entry).  The item's heap bytes become dead space.
        *node* as for :meth:`insert_item`."""
        if step_hook is not None:
            self._delete_item_stepped(index, step_hook)
            if node is not None:
                node.refresh(node.version)
            return
        buf = self.buf
        if node is None:
            n, _, _, _, backup = _WRITER_FIELDS(buf, 0)
        else:
            n, backup = node.n_keys, node.backup_count
        if not 0 <= index < n:
            raise PageError(f"delete index {index} out of range 0..{n - 1}")
        if backup:
            raise PageError(_BACKUP_BLOCKS_DELETE)
        at = P.HEADER_SIZE + P.LINE_ENTRY_SIZE * index
        lower = P.HEADER_SIZE + P.LINE_ENTRY_SIZE * (n - 1)
        buf[at:lower] = buf[at + P.LINE_ENTRY_SIZE: lower + P.LINE_ENTRY_SIZE]
        _PUT16(buf, P.OFF_N_KEYS, n - 1)
        _PUT16(buf, P.OFF_LOWER, lower)
        if node is not None:
            node.n_keys = n - 1
            node.lower = lower

    def _delete_item_stepped(self, index: int, step_hook: StepHook) -> None:
        """Section 3.3.2's delete: copy entries left one at a time until
        the duplicate is last, then decrement ``nKeys``."""
        n = self.n_keys
        if not 0 <= index < n:
            raise PageError(f"delete index {index} out of range 0..{n - 1}")
        if self.backup_count:
            raise PageError(_BACKUP_BLOCKS_DELETE)
        for j in range(index, n - 1):
            P.set_line(self.buf, j, P.get_line(self.buf, j + 1))
            step_hook(f"copied-{j}")
        self.n_keys = n - 1
        self.lower = P.line_offset(self.n_keys + self.backup_count)

    # ------------------------------------------------------------------
    # a sorted run, written with one line-table rewrite
    # ------------------------------------------------------------------

    def insert_run(self, slots: list[int], items: list[bytes],
                   node: DecodedNode) -> None:
        """Insert ``items[k]`` ahead of the entry now at ``slots[k]``
        (*slots* ascending, several items may share one), leaving the
        bytes ``insert_item(slots[k] + k, items[k])`` for each *k* in turn
        would: the items stored top-down in that order, the line table
        rewritten once from the first slot on, each header field written
        once.  The caller passes only what fits without compaction."""
        if len(items) == 1:
            self.insert_item(slots[0], items[0], node=node)
            return
        buf = self.buf
        n, lower, upper = node.n_keys, node.lower, node.upper
        first = slots[0]
        if not 0 <= first <= slots[-1] <= n or sorted(slots) != slots:
            raise PageError(f"insert slots {slots} not ascending in 0..{n}")
        if node.prev_n_keys:
            raise PageError(_BACKUP_BLOCKS_INSERT)
        offsets = [upper - end for end in accumulate(map(len, items))]
        if offsets[-1] - lower < P.LINE_ENTRY_SIZE * len(items):
            raise PageFullError(
                f"no room for a run of {len(items)} items "
                f"(free={upper - lower})")
        buf[offsets[-1]: upper] = b"".join(reversed(items))
        upper = offsets[-1]
        _PUT16(buf, P.OFF_UPPER, upper)
        table = list(struct.unpack_from("<%dH" % (n - first), buf,
                                        P.line_offset(first)))
        _splice(table, first, slots, offsets)
        struct.pack_into("<%dH" % len(table), buf, P.line_offset(first),
                         *table)
        n += len(items)
        _PUT16(buf, P.OFF_N_KEYS, n)
        lower = P.line_offset(n + node.backup_count)
        _PUT16(buf, P.OFF_LOWER, lower)
        node.n_keys = n
        node.lower = lower
        node.upper = upper

    def delete_run(self, slots: list[int], node: DecodedNode) -> None:
        """Delete the entries at *slots* (ascending, distinct), leaving
        the bytes ``delete_item`` applied to each in turn would —
        including the stale copies of the last entry that each single
        shift leaves just past the shrinking table."""
        if len(slots) == 1:
            self.delete_item(slots[0], node=node)
            return
        buf = self.buf
        n = node.n_keys
        first = slots[0]
        if not 0 <= first <= slots[-1] < n or sorted(set(slots)) != slots:
            raise PageError(
                f"delete slots {slots} not ascending in 0..{n - 1}")
        if node.backup_count:
            raise PageError(_BACKUP_BLOCKS_DELETE)
        table = list(struct.unpack_from("<%dH" % (n - first), buf,
                                        P.line_offset(first)))
        last = table[-1]
        for slot in reversed(slots):
            del table[slot - first]
        table += [last] * len(slots)
        struct.pack_into("<%dH" % len(table), buf, P.line_offset(first),
                         *table)
        n -= len(slots)
        _PUT16(buf, P.OFF_N_KEYS, n)
        lower = P.line_offset(n)
        _PUT16(buf, P.OFF_LOWER, lower)
        node.n_keys = n
        node.lower = lower

    # ------------------------------------------------------------------
    # intra-page inconsistency (Sections 3.3.1 / 3.3.2)
    # ------------------------------------------------------------------

    def find_intra_page_inconsistency(self) -> int | None:
        """Index of the first line-table entry that duplicates its
        neighbour's offset, or None if the page is clean."""
        n = self.n_keys
        try:
            offsets = struct.unpack_from("<%dH" % n, self.buf, P.HEADER_SIZE)
        except struct.error:
            # the table runs off the page: walk it entry by entry, which
            # still finds a duplicate that precedes the overrun
            offsets = (P.get_line(self.buf, i) for i in range(n))
        prev = None
        for i, off in enumerate(offsets):
            if off == prev:
                return i
            prev = off
        return None

    def repair_intra_page(self) -> bool:
        """Remove duplicate line-table entries (the interrupted insert's
        debris).  Returns True if anything was repaired."""
        repaired = False
        while True:
            dup = self.find_intra_page_inconsistency()
            if dup is None:
                return repaired
            # copy entries left until the duplicate is last, then shrink
            self.delete_item(dup)
            repaired = True

    # ------------------------------------------------------------------
    # wholesale rebuild (splits, repairs)
    # ------------------------------------------------------------------

    def replace_items(self, item_blobs: list[bytes]) -> None:
        """Rebuild the page to contain exactly *item_blobs* (already
        serialized, already sorted).  Header identity fields (type, level,
        flags, peers, tokens) are preserved; the backup region is cleared."""
        header = P.read_header(self.buf)
        body_start = P.line_offset(len(item_blobs))
        offsets = [self.page_size - end
                   for end in accumulate(map(len, item_blobs))]
        upper = offsets[-1] if offsets else self.page_size
        # clear old content first so dead bytes cannot alias items
        self.buf[P.HEADER_SIZE:] = bytes(self.page_size - P.HEADER_SIZE)
        if upper < body_start:
            raise PageFullError("replace_items: items overflow the page")
        self.buf[upper:] = b"".join(reversed(item_blobs))
        struct.pack_into("<%dH" % len(offsets), self.buf, P.HEADER_SIZE,
                         *offsets)
        header.n_keys = len(item_blobs)
        header.prev_n_keys = 0
        header.backup_count = 0
        header.lower = body_start
        header.upper = upper
        P.write_header(self.buf, header)

    # ------------------------------------------------------------------
    # reorg backup region (Section 3.4)
    # ------------------------------------------------------------------

    def write_backup(self, backup_blobs: list[bytes], *,
                     prev_total: int, live_is_low: bool,
                     old_left_peer: int, old_left_token: int,
                     old_right_peer: int, old_right_token: int) -> None:
        """Append the backup keys and the pre-split peer record.

        Must be called on a freshly built page (live items already in
        place via :meth:`replace_items`).  The backup entries live just
        beyond the live line table; the peer record sits after them.
        """
        if self.backup_count or self.prev_n_keys:
            raise PageError("page already holds a backup")
        n = self.n_keys
        count = len(backup_blobs)
        need_lower = P.line_offset(n + count) + BACKUP_RECORD_SIZE
        offsets = []
        upper = self.upper
        for blob in backup_blobs:
            upper -= len(blob)
            if upper < need_lower:
                raise PageFullError("backup keys overflow the page")
            self.buf[upper: upper + len(blob)] = blob
            offsets.append(upper)
        self.upper = upper
        for i, off in enumerate(offsets):
            P.set_line(self.buf, n + i, off)
        _BACKUP_RECORD.pack_into(self.buf, P.line_offset(n + count),
                                 old_left_peer, old_left_token,
                                 old_right_peer, old_right_token)
        self.backup_count = count
        self.prev_n_keys = prev_total
        flags = self.flags
        if live_is_low:
            flags |= FLAG_LIVE_IS_LOW
        else:
            flags &= ~FLAG_LIVE_IS_LOW
        self.flags = flags
        self.lower = need_lower

    def backup_record(self) -> tuple[int, int, int, int]:
        """``(old_left_peer, old_left_token, old_right_peer,
        old_right_token)`` stashed by :meth:`write_backup`."""
        if not self.backup_count:
            raise PageError("page holds no backup")
        off = P.line_offset(self.n_keys + self.backup_count)
        return _BACKUP_RECORD.unpack_from(self.buf, off)

    def backup_items(self) -> list[bytes]:
        """Serialized items of the backup half, in key order."""
        blobs = []
        for i in range(self.n_keys, self.n_keys + self.backup_count):
            off = P.get_line(self.buf, i)
            size = I.item_size_at(self.buf, off, leaf=self.is_leaf,
                                  shadow=self.shadow_items)
            blobs.append(bytes(self.buf[off: off + size]))
        return blobs

    def restore_backup(self) -> None:
        """Undo the split: make the page hold the original page's full key
        set again (paper Section 3.4, recovery cases (a)/(b):
        "assigning prevNKeys to nKeys reallocates the duplicate keys")."""
        if not self.prev_n_keys:
            raise PageError("restore_backup on a page with no backup")
        n, b = self.n_keys, self.backup_count
        if n + b != self.prev_n_keys:
            raise PageCorruptError(
                f"backup accounting broken: n={n} b={b} "
                f"prev={self.prev_n_keys}"
            )
        old_left, old_left_tok, old_right, old_right_tok = self.backup_record()
        if not self.live_is_low:
            # live entries are the high half: rotate so the merged table
            # is in key order (backup half first)
            live = [P.get_line(self.buf, i) for i in range(n)]
            backup = [P.get_line(self.buf, n + i) for i in range(b)]
            for i, off in enumerate(backup + live):
                P.set_line(self.buf, i, off)
        self.n_keys = self.prev_n_keys
        self.prev_n_keys = 0
        self.backup_count = 0
        self.new_page = 0
        self.flags &= ~FLAG_LIVE_IS_LOW
        self.left_peer = old_left
        self.left_peer_token = old_left_tok
        self.right_peer = old_right
        self.right_peer_token = old_right_tok
        self.lower = P.line_offset(self.n_keys)

    def reclaim_backup(self) -> None:
        """Drop the backup keys once a sync has committed both split halves
        (the split is durable; the duplicates are no longer needed)."""
        if not self.prev_n_keys:
            return
        self.prev_n_keys = 0
        self.backup_count = 0
        self.flags &= ~FLAG_LIVE_IS_LOW
        self.new_page = 0
        self.lower = P.line_offset(self.n_keys)
        self.compact()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable dump used by the split-anatomy example."""
        kind = {PAGE_LEAF: "leaf", PAGE_INTERNAL: "internal"}.get(
            self.page_type, f"type{self.page_type}")
        lines = [
            f"{kind} level={self.level} n_keys={self.n_keys} "
            f"prev_n_keys={self.prev_n_keys} backup={self.backup_count} "
            f"token={self.sync_token} new_page={self.new_page} "
            f"peers=({self.left_peer},{self.right_peer}) "
            f"free={self.free_space()}"
        ]
        for i in range(self.n_keys):
            key = self.key_at(i)
            if self.is_leaf:
                lines.append(f"  [{i}] {key.hex()} -> {self.tid_at(i)}")
            elif self.shadow_items:
                lines.append(
                    f"  [{i}] {key.hex() or '-inf'} child={self.child_at(i)} "
                    f"prev={self.prev_at(i)}"
                )
            else:
                lines.append(
                    f"  [{i}] {key.hex() or '-inf'} child={self.child_at(i)}"
                )
        for j in range(self.backup_count):
            i = self.n_keys + j
            off = P.get_line(self.buf, i)
            lines.append(f"  (backup) {I.item_key(self.buf, off).hex()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the decoded node (the read path)
# ----------------------------------------------------------------------

#: What a garbage page's bulk decode can raise: a line table or a trailing
#: field running off the page, an item offset at the page's last byte.
_UNDECODABLE = (struct.error, IndexError)


def _decode_keys(snap: bytes, offsets) -> list[bytes]:
    return [snap[o + 2: o + 2 + (snap[o] | snap[o + 1] << 8)]
            for o in offsets]


def _decode_tails(snap: bytes, offsets, width: int) -> bytes:
    """The *width* bytes that follow each item's key (child pointer or
    TID), concatenated for one ``struct`` call."""
    ends = [o + 2 + (snap[o] | snap[o + 1] << 8) for o in offsets]
    raw = b"".join([snap[e: e + width] for e in ends])
    if len(raw) != width * len(ends):
        raise struct.error("item runs off the page")
    return raw


class DecodedNode:
    """The decoded form of one buffer frame's page, stamped with the frame
    ``version`` it reflects.

    It hangs off the :class:`~repro.storage.buffer_pool.Buffer` (reach it
    through :func:`node_of`), so it lives exactly as long as the frame is
    resident and a version mismatch is the whole invalidation protocol.
    Decoding is paid for only when it is used:

    * the header is always there — one ``struct`` unpack per version;
    * a search binary-searches the page bytes (:func:`search_bytes`) and
      caches nothing until the frame's searches this residency have paid
      for a decode: one bulk decode costs about ``n_keys / 20`` byte
      searches, so the search that finds ``n_keys // 16`` already served
      from the bytes decodes instead (ski rental: a frame evicted before
      then never pays for a list it would not have used);
    * a frame a writer is about to modify (:meth:`for_writer`), one a
      whole-page reader walks, and one whose searches have paid gets its
      key list — and, on an internal page, its child pointers —
      decoded in bulk: one unpack for the line table and one
      comprehension per list, no per-item calls.  Leaf writers keep
      the node current across their own version bump — the mutator they
      hand it to assigns the header fields it changed, :meth:`note_insert`
      / :meth:`note_delete` / :meth:`note_update` restamp it and update
      the list; any other bump drops the list and the next reader
      decodes it again in bulk.

    A page whose bytes cannot be bulk-decoded (garbage ahead of a
    first-use repair) never gets lists: every reader falls back to the
    per-item :class:`NodeView` decode, which raises where it always did.
    """

    HEADER_FIELDS = ("magic", "page_type", "flags", "level", "n_keys",
                     "prev_n_keys", "new_page", "left_peer", "right_peer",
                     "sync_token", "left_peer_token", "right_peer_token",
                     "lower", "upper", "backup_count", "lsn")
    __slots__ = ("data", "version", "searches", "keys", "children",
                 *HEADER_FIELDS, "__weakref__")

    def __init__(self, data: bytearray, version: int):
        self.data = data
        #: searches served from the bytes this residency (version bumps
        #: keep the count; the frame leaving the pool drops it)
        self.searches = 0
        self.refresh(version)

    def refresh(self, version: int) -> None:
        """Re-read the header for frame *version*; the lists are dropped."""
        (self.magic, self.page_type, self.flags, self.level, self.n_keys,
         self.prev_n_keys, _, self.new_page, self.left_peer,
         self.right_peer, self.sync_token, self.left_peer_token,
         self.right_peer_token, self.lower, self.upper, self.backup_count,
         _, self.lsn) = P.HEADER_STRUCT.unpack_from(self.data, 0)
        self.keys: list[bytes] | None = None
        self.children: list[int] | None = None
        self.version = version

    @property
    def is_leaf(self) -> bool:
        return self.page_type == PAGE_LEAF

    def for_writer(self) -> None:
        """A writer is about to search and modify this leaf: its next
        search decodes the key list however few searches the frame has
        served, and :meth:`note_insert` / :meth:`note_delete` /
        :meth:`note_update` keep it across the writer's own version
        bump."""
        self.searches = self.n_keys

    # -- bulk decode -----------------------------------------------------

    def materialise(self) -> list[bytes] | None:
        """Decode the key list (and an internal page's child pointers) in
        bulk; ``None`` when the bytes are undecodable."""
        data, n = self.data, self.n_keys
        try:
            offsets = struct.unpack_from("<%dH" % n, data, P.HEADER_SIZE)
            snap = bytes(data)
            keys = _decode_keys(snap, offsets)
            if self.page_type != PAGE_LEAF:
                self.children = list(struct.unpack(
                    "<%dI" % n, _decode_tails(snap, offsets, 4)))
        except _UNDECODABLE:
            return None
        self.keys = keys
        return keys

    def keys_decodable(self) -> bool:
        """Whether a bulk decode of this page's keys would succeed, told
        from its line table without building a key or an offset: every
        entry must leave room for the 2-byte key length, ``offset <=
        len(page) - 2``."""
        if self.keys is not None:
            return True
        n, data = self.n_keys, self.data
        table = data[P.HEADER_SIZE: P.HEADER_SIZE + 2 * n]
        if len(table) < 2 * n:
            return False
        limit = len(data) - 2
        if limit & 0xFF != 0xFE:
            return max(struct.unpack("<%dH" % n, table), default=0) <= limit
        # a whole number of 256-byte blocks, so two C-level byte tests:
        # no entry's high byte past the last block's, and no entry the one
        # offset of that block past ``limit`` (low byte 0xFF).  No high
        # byte is 0xFF, so that pair can only match a whole entry.
        top = limit >> 8
        return (not table[1::2].translate(None, _BYTE_VALUES[:top + 1])
                and bytes((0xFF, top)) not in table)

    def all_keys(self) -> list[bytes]:
        """Every live key in line-table order (whole-page readers)."""
        keys = self.keys
        if keys is None:
            keys = self.materialise()
            if keys is None:
                keys = list(NodeView(self.data).keys())
        return keys

    def all_children(self) -> list[int]:
        """Every child pointer of an internal page."""
        if self.keys is None:
            self.materialise()
        children = self.children
        if children is None:
            view = NodeView(self.data)
            children = [view.child_at(i) for i in range(self.n_keys)]
        return children

    def all_tids(self) -> list[TID]:
        """Every TID of a leaf.  Not kept: only page-at-a-time readers
        want them, and each of those walks a page once."""
        return self.leaf_slice(0, self.n_keys)[1]

    def leaf_slice(self, start: int,
                   stop: int) -> tuple[list[bytes], list[TID]]:
        """Keys and TIDs of leaf slots ``[start, stop)``, decoding those
        items only: a bounded scan pays for what it yields.  A slice that
        covers the page decodes, and keeps, the whole key list."""
        data = self.data
        keys = self.keys
        if keys is None and start == 0 and stop == self.n_keys:
            keys = self.materialise()
        try:
            offsets = struct.unpack_from("<%dH" % (stop - start), data,
                                         P.HEADER_SIZE + 2 * start)
            snap = bytes(data)
            keys = (_decode_keys(snap, offsets) if keys is None
                    else keys[start:stop])
            raw = _decode_tails(snap, offsets, _TIDS.size)
        except _UNDECODABLE:
            view = NodeView(data)
            return ([view.key_at(i) for i in range(start, stop)],
                    [view.tid_at(i) for i in range(start, stop)])
        return keys, [TID(page_no, line)
                      for page_no, line in _TIDS.iter_unpack(raw)]

    # -- searches ----------------------------------------------------------

    def _search_keys(self, stats) -> list[bytes] | None:
        """The key list a search may bisect, or ``None`` to search the
        bytes; counts the search on *stats* as a hit (list already there)
        or a miss (served from bytes, or decoded for this search).  The
        search that finds ``n_keys // 16`` searches already served from
        the bytes this residency decodes the list (DESIGN §5g)."""
        keys = self.keys
        if keys is not None:
            stats.cache_hits += 1
            return keys
        stats.cache_misses += 1
        if self.searches >= self.n_keys >> 4:
            return self.materialise()
        self.searches += 1
        return None

    def search(self, key: bytes, stats) -> tuple[int, bool]:
        """Leftmost index whose key >= *key*, and whether it is an exact
        match.  Index may equal ``n_keys``."""
        keys = self._search_keys(stats)
        if keys is None:
            return search_bytes(self.data, self.n_keys, key)
        lo = bisect_left(keys, key)
        return lo, lo < len(keys) and keys[lo] == key

    def route(self, key: bytes, stats) -> int:
        """Routing slot on an internal page (see :meth:`NodeView.route`)."""
        index, found = self.search(key, stats)
        return index if found or index == 0 else index - 1

    def lower_bound(self, key: bytes) -> int:
        """Leftmost index whose key >= *key*, from whatever is decoded
        already: not a search as far as admission and *stats* go."""
        keys = self.keys
        if keys is None:
            return search_bytes(self.data, self.n_keys, key)[0]
        return bisect_left(keys, key)

    # -- single items ------------------------------------------------------

    def key_at(self, index: int) -> bytes:
        keys = self.keys
        if keys is not None:
            return keys[index]
        return I.item_key(self.data, P.get_line(self.data, index))

    def min_key(self) -> bytes:
        keys = self.keys
        return keys[0] if keys else self.key_at(0)

    def max_key(self) -> bytes:
        keys = self.keys
        return keys[-1] if keys else self.key_at(self.n_keys - 1)

    def child_at(self, index: int) -> int:
        children = self.children
        if children is not None:
            return children[index]
        return I.item_child(self.data, P.get_line(self.data, index))

    def tid_of(self, index: int, key: bytes) -> TID:
        """TID of the leaf item at *index*, whose key a search just
        matched as *key* (so its length need not be read back)."""
        off = _U16(self.data, P.HEADER_SIZE + 2 * index)[0]
        return TID(*_TIDS.unpack_from(self.data, off + 2 + len(key)))

    # -- maintenance across a leaf writer's own version bump ---------------

    def note_insert(self, buf, slot: int, key: bytes) -> None:
        """The caller just ran ``insert_item(slot, ..., node=self)`` —
        which left the header fields current — and ``mark_dirty`` on the
        leaf: take the new version and keep the key list."""
        self.version = buf.version
        if self.keys is not None:
            self.keys.insert(slot, key)

    def note_delete(self, buf, slot: int) -> None:
        """Mirror of :meth:`note_insert` for ``delete_item``."""
        self.version = buf.version
        if self.keys is not None:
            del self.keys[slot]

    def note_update(self, buf) -> None:
        """The caller just ran ``set_tid_at`` — which moves no header
        field and no key — and ``mark_dirty`` on the leaf: take the new
        version and keep the key list as it is."""
        self.version = buf.version

    def note_insert_run(self, buf, slots: list[int],
                        keys: list[bytes]) -> None:
        """:meth:`note_insert` for ``insert_run(slots, ...)``: one merge."""
        self.version = buf.version
        if self.keys is not None:
            _splice(self.keys, 0, slots, keys)

    def note_delete_run(self, buf, slots: list[int]) -> None:
        """:meth:`note_delete` for ``delete_run(slots)``."""
        self.version = buf.version
        if self.keys is not None:
            for slot in reversed(slots):
                del self.keys[slot]

    # -- self-check (runtime sanitizer) ------------------------------------

    def mismatch(self) -> str | None:
        """How this node differs from a fresh decode of its bytes, or
        ``None``.  A node that carries its frame's current version must
        equal the bytes; the sanitizer asserts it on every ``unpin``."""
        fresh = DecodedNode(self.data, self.version)
        for name in self.HEADER_FIELDS:
            if getattr(self, name) != getattr(fresh, name):
                return (f"header field {name}: node has "
                        f"{getattr(self, name)}, page has "
                        f"{getattr(fresh, name)}")
        if self.keys is not None:
            fresh.materialise()
            if self.keys != fresh.keys:
                return "materialised key list differs from the page"
            if self.children is not None \
                    and self.children != fresh.children:
                return "materialised child list differs from the page"
        return None


def node_of(buf) -> DecodedNode:
    """The :class:`DecodedNode` of frame *buf*, decoded or refreshed when
    the frame's version has moved past it."""
    node = buf.node
    if node is None:
        node = buf.node = DecodedNode(buf.data, buf.version)
    elif node.version != buf.version:
        node.refresh(buf.version)
    return node
