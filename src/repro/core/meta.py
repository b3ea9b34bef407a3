"""The index meta-data page (page 0 of every index file).

Section 3.3: "The first page of the index is a meta-data page containing a
pointer to the current root of the tree.  Like internal page keys, the root
pointer must contain a previous and current page pointer."

The meta page therefore stores:

* ``root`` / ``prev_root`` — current and shadow root page numbers;
* ``root_token`` — the sync token at the moment the root pointer last
  changed.  It plays two roles: the prevPtr-reuse rule of shadow split
  steps (2)/(3) applied to the root pointer, and lost-root detection (a
  durable stale page recycled into the root's slot necessarily carries an
  older token, so ``page.sync_token < meta.root_token`` ⇒ the new root
  image never reached stable storage);
* tree kind, key-codec name and a height hint (informational);
* ``first_sync_pending`` — set when the tree's first root is installed
  and cleared, with a synchronous write of this page, once a sync has
  completed after it.  While it is set no sync has made any root of the
  tree durable, so the tree holds no committed key (DESIGN §5b, the
  first-sync invariant);
* the clean-shutdown freelist snapshot (Section 3.3.3), which the opener
  must erase durably *before* reallocating any page on it.
"""

from __future__ import annotations

import struct

from ..constants import PAGE_CONTROL
from ..errors import PageCorruptError, PageError
from ..storage import page as P

_META_STRUCT = struct.Struct("<BBHIIQH")  # kind, flags, height, root, prev, token, codec_len
_META_OFF = P.HEADER_SIZE
_CODEC_OFF = _META_OFF + _META_STRUCT.size
_FREELIST_OFF = _CODEC_OFF + 32  # codec name capped at 32 bytes
_COUNT = struct.Struct("<H")

TREE_KINDS = {"none": 0, "normal": 1, "shadow": 2, "reorg": 3, "hybrid": 4}
TREE_KIND_NAMES = {v: k for k, v in TREE_KINDS.items()}

#: meta flag: no sync has completed since the first root was installed
_FIRST_SYNC_PENDING = 0x01


class MetaView:
    """View over an index file's page-0 buffer."""

    def __init__(self, buf: bytearray, page_size: int | None = None):
        self.buf = buf
        self.page_size = page_size if page_size is not None else len(buf)

    # -- formatting -------------------------------------------------------

    def init_meta(self, tree_kind: str, codec_name: str) -> None:
        fresh = P.new_page(self.page_size, PAGE_CONTROL)
        self.buf[:] = fresh
        codec_bytes = codec_name.encode("ascii")
        if len(codec_bytes) > 31:
            raise PageError("codec name too long for the meta page")
        _META_STRUCT.pack_into(self.buf, _META_OFF, TREE_KINDS[tree_kind],
                               0, 0, 0, 0, 0, len(codec_bytes))
        self.buf[_CODEC_OFF: _CODEC_OFF + len(codec_bytes)] = codec_bytes

    def check(self) -> None:
        header = P.read_header(self.buf)
        if header.page_type != PAGE_CONTROL:
            raise PageCorruptError(
                f"page 0 is not a meta page (type={header.page_type})"
            )

    # -- fields ---------------------------------------------------------------

    def _fields(self):
        return _META_STRUCT.unpack_from(self.buf, _META_OFF)

    def _store(self, kind, flags, height, root, prev_root, token,
               codec_len):
        _META_STRUCT.pack_into(self.buf, _META_OFF, kind, flags, height,
                               root, prev_root, token, codec_len)

    @property
    def tree_kind(self) -> str:
        return TREE_KIND_NAMES[self._fields()[0]]

    @property
    def codec_name(self) -> str:
        length = self._fields()[6]
        return bytes(self.buf[_CODEC_OFF: _CODEC_OFF + length]).decode("ascii")

    @property
    def height(self) -> int:
        return self._fields()[2]

    @height.setter
    def height(self, value: int) -> None:
        kind, flags, _, root, prev, token, clen = self._fields()
        self._store(kind, flags, value, root, prev, token, clen)

    @property
    def first_sync_pending(self) -> bool:
        return bool(self._fields()[1] & _FIRST_SYNC_PENDING)

    @first_sync_pending.setter
    def first_sync_pending(self, value: bool) -> None:
        kind, flags, height, root, prev, token, clen = self._fields()
        flags = (flags | _FIRST_SYNC_PENDING if value
                 else flags & ~_FIRST_SYNC_PENDING)
        self._store(kind, flags, height, root, prev, token, clen)

    @property
    def root(self) -> int:
        return self._fields()[3]

    @property
    def prev_root(self) -> int:
        return self._fields()[4]

    @property
    def root_token(self) -> int:
        return self._fields()[5]

    def set_root(self, root: int, prev_root: int, token: int) -> None:
        kind, flags, height, _, __, ___, clen = self._fields()
        self._store(kind, flags, height, root, prev_root, token, clen)

    # -- clean-shutdown freelist snapshot (Section 3.3.3) ------------------

    def store_freelist(self, page_nos: list[int]) -> int:
        """Serialize as many page numbers as fit; returns how many were
        kept.  Every listed page is erased on stable storage, so a number
        is all a reopened allocator needs."""
        room = (self.page_size - _FREELIST_OFF - _COUNT.size) // 4
        kept = page_nos[:room]
        struct.pack_into(f"<H{len(kept)}I", self.buf, _FREELIST_OFF,
                         len(kept), *kept)
        return len(kept)

    def load_freelist(self) -> list[int]:
        (count,) = _COUNT.unpack_from(self.buf, _FREELIST_OFF)
        return list(struct.unpack_from(f"<{count}I", self.buf,
                                       _FREELIST_OFF + _COUNT.size))

    def erase_freelist(self) -> None:
        """Zero the stored snapshot (must reach stable storage before any
        listed page is reallocated — the caller forces the write)."""
        _COUNT.pack_into(self.buf, _FREELIST_OFF, 0)
