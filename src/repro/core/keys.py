"""Keys, key codecs, TIDs, and key ranges.

Inside the trees, every key is a ``bytes`` value compared lexicographically
— the codecs here produce **order-preserving** encodings so the byte
comparison agrees with the natural ordering of the original values.  The
empty byte string sorts before everything and doubles as the "minus
infinity" separator used for the leftmost entry of internal pages.

Duplicate handling follows the paper's assumption (Section 2): POSTGRES
never stores duplicate keys; it appends the object id to make a unique
``<value, object_id>`` composite.  :func:`make_unique` implements that
rewrite.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

#: Minus-infinity sentinel: the key of the leftmost entry on internal pages.
MIN_KEY = b""

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_U64 = struct.Struct(">Q")
_TID = struct.Struct("<IH")

TID_SIZE = _TID.size  # 6


@dataclass(frozen=True, order=True)
class TID:
    """Tuple identifier: heap page number + line-table slot (Section 3.1)."""

    page_no: int
    line: int

    def pack(self) -> bytes:
        return _TID.pack(self.page_no, self.line)

    @classmethod
    def unpack(cls, data: bytes | memoryview, offset: int = 0) -> "TID":
        page_no, line = _TID.unpack_from(data, offset)
        return cls(page_no, line)


class KeyCodec:
    """Base codec: raw bytes in, raw bytes out."""

    name = "bytes"

    def encode(self, value) -> bytes:
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"bytes codec got {type(value).__name__}")
        return bytes(value)

    def decode(self, data: bytes):
        return data


class UInt32Codec(KeyCodec):
    """Four-byte keys — the size the paper benchmarks with (Section 6)."""

    name = "uint32"

    def encode(self, value) -> bytes:
        return _U32.pack(value)

    def decode(self, data: bytes) -> int:
        return _U32.unpack(data)[0]


class Int64Codec(KeyCodec):
    """Signed 64-bit integers; the sign bit is flipped so the byte order
    matches the numeric order."""

    name = "int64"

    def encode(self, value) -> bytes:
        return _U64.pack((value + (1 << 63)) & ((1 << 64) - 1))

    def decode(self, data: bytes) -> int:
        return _U64.unpack(data)[0] - (1 << 63)


class StringCodec(KeyCodec):
    """UTF-8 strings; byte order equals code-point order."""

    name = "str"

    def encode(self, value) -> bytes:
        return value.encode("utf-8")

    def decode(self, data: bytes) -> str:
        return data.decode("utf-8")


CODECS = {codec.name: codec for codec in
          (KeyCodec(), UInt32Codec(), Int64Codec(), StringCodec())}


def make_unique(value_key: bytes, object_id: int) -> bytes:
    """Turn a possibly-duplicate key into a unique ``<value, object_id>``
    composite (paper Section 2).  The oid is appended big-endian so
    composites with equal values sort by oid."""
    return value_key + _U64.pack(object_id)


def split_unique(composite: bytes) -> tuple[bytes, int]:
    """Inverse of :func:`make_unique`."""
    if len(composite) < 8:
        raise ValueError("composite key shorter than its object id suffix")
    return composite[:-8], _U64.unpack(composite[-8:])[0]


@dataclass(frozen=True)
class KeyBounds:
    """Half-open expected key range ``[lo, hi)`` threaded down a descent.

    ``hi=None`` means +infinity.  These are the "minimum and maximum key
    values that should be on P" of Section 3.3.1.
    """

    lo: bytes = MIN_KEY
    hi: bytes | None = None

    def contains(self, key: bytes) -> bool:
        if key < self.lo:
            return False
        return self.hi is None or key < self.hi

    def child(self, lo: bytes, hi: bytes | None) -> "KeyBounds":
        """Bounds for a child entry spanning ``[lo, hi)`` clipped to self."""
        new_lo = max(lo, self.lo)
        if hi is None:
            new_hi = self.hi
        elif self.hi is None:
            new_hi = hi
        else:
            new_hi = min(hi, self.hi)
        return KeyBounds(new_lo, new_hi)


#: Bounds of the whole tree.
FULL_BOUNDS = KeyBounds()
