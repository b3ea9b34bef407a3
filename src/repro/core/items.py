"""On-page item formats for B-tree pages.

Three item shapes exist (paper Sections 3.1 and 3.3):

* **leaf items** — ``<key, TID>``: 16-bit key length, key bytes, then a
  6-byte tuple identifier;
* **normal internal items** — ``<key, childPtr>``: key then a 32-bit child
  page number;
* **shadow internal items** — ``<key, childPtr, prevPtr>``: the shadow-tree
  triple of Figure 1; the prevPtr names a page, guaranteed durable, holding
  the key range of the child.

All three start with the length-prefixed key, so any item is
self-delimiting and the pointer fields sit at computable offsets — which is
what lets split code rewrite ``childPtr``/``prevPtr`` in place (shadow split
steps 3 and 5) without touching the key bytes.
"""

from __future__ import annotations

import struct

from .keys import TID

_LEN = struct.Struct("<H")
_U32 = struct.Struct("<I")
_TIDP = struct.Struct("<IH")

#: Fixed per-item overhead beyond the key bytes.
LEAF_OVERHEAD = 2 + 6          # length prefix + TID
INTERNAL_OVERHEAD = 2 + 4      # length prefix + childPtr
SHADOW_OVERHEAD = 2 + 8        # length prefix + childPtr + prevPtr


def leaf_item_size(key: bytes) -> int:
    return LEAF_OVERHEAD + len(key)


def internal_item_size(key: bytes, shadow: bool) -> int:
    return (SHADOW_OVERHEAD if shadow else INTERNAL_OVERHEAD) + len(key)


def pack_leaf_item(key: bytes, tid: TID) -> bytes:
    return _LEN.pack(len(key)) + key + _TIDP.pack(tid.page_no, tid.line)


def pack_internal_item(key: bytes, child: int, prev: int | None = None) -> bytes:
    data = _LEN.pack(len(key)) + key + _U32.pack(child)
    if prev is not None:
        data += _U32.pack(prev)
    return data


def item_key(buf, offset: int) -> bytes:
    """Key bytes of the item at *offset*."""
    (klen,) = _LEN.unpack_from(buf, offset)
    return bytes(buf[offset + 2: offset + 2 + klen])


def item_tid(buf, offset: int) -> TID:
    """TID of the leaf item at *offset*."""
    (klen,) = _LEN.unpack_from(buf, offset)
    page_no, line = _TIDP.unpack_from(buf, offset + 2 + klen)
    return TID(page_no, line)


def item_child(buf, offset: int) -> int:
    """childPtr of the internal item at *offset*."""
    (klen,) = _LEN.unpack_from(buf, offset)
    return _U32.unpack_from(buf, offset + 2 + klen)[0]


def item_prev(buf, offset: int) -> int:
    """prevPtr of the shadow internal item at *offset*."""
    (klen,) = _LEN.unpack_from(buf, offset)
    return _U32.unpack_from(buf, offset + 2 + klen + 4)[0]


def set_item_child(buf: bytearray, offset: int, child: int) -> None:
    (klen,) = _LEN.unpack_from(buf, offset)
    _U32.pack_into(buf, offset + 2 + klen, child)


def set_item_prev(buf: bytearray, offset: int, prev: int) -> None:
    (klen,) = _LEN.unpack_from(buf, offset)
    _U32.pack_into(buf, offset + 2 + klen + 4, prev)


def leaf_item_bytes(buf, offset: int) -> bytes:
    """The full serialized leaf item at *offset*."""
    (klen,) = _LEN.unpack_from(buf, offset)
    return bytes(buf[offset: offset + LEAF_OVERHEAD + klen])


def internal_item_bytes(buf, offset: int, shadow: bool) -> bytes:
    (klen,) = _LEN.unpack_from(buf, offset)
    overhead = SHADOW_OVERHEAD if shadow else INTERNAL_OVERHEAD
    return bytes(buf[offset: offset + overhead + klen])


def item_size_at(buf, offset: int, *, leaf: bool, shadow: bool) -> int:
    (klen,) = _LEN.unpack_from(buf, offset)
    if leaf:
        return LEAF_OVERHEAD + klen
    return (SHADOW_OVERHEAD if shadow else INTERNAL_OVERHEAD) + klen
