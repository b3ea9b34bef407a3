"""A write-ahead log substrate for the Section 4 comparison.

The paper argues that a conventional WAL data manager could adopt the
shadow/reorg index techniques to switch index updates from *physical*
logging (every key moved by a split is logged as a delete plus an insert)
to *logical* logging (only the user-level insert/delete is logged).  To
measure that claim we need an actual log: append-only records with LSNs,
serialized to bytes so volumes are comparable, and a redo driver.

The log itself is a simple in-memory stable log (a real file adds nothing
to the comparison); ``bytes_written`` counts serialized record sizes
including per-record framing.

Records additionally carry a **shard** (the redo-partition domain of a
sharded group) and a **sync token** (the shard's sync counter captured at
append time).  Partitioned replay needs both: the shard keys the
per-partition LSN index built at append time (so a replay worker never
re-scans the whole log), and the token feeds the Lomet-style redo test —
a record whose token predates the shard's last durable :data:`SYNC_MARK`
was already covered by a completed sync and can be elided.
"""

from __future__ import annotations

import enum
import struct
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator

from ..errors import WALError

#: lsn, xid, kind, shard, sync token, payload length
_FRAME = struct.Struct("<QIBHQH")
_LSN = attrgetter("lsn")


class RecordKind(enum.IntEnum):
    """Log record types used by both logging disciplines."""

    # logical: one record per user-level index operation
    OP_INSERT = 1
    OP_DELETE = 2
    # physical (ARIES/IM-style): key-granularity page changes
    KEY_ADD = 3       # key added to a page
    KEY_REMOVE = 4    # key removed from a page
    PAGE_FORMAT = 5   # page initialized (split allocates)
    # transaction control
    COMMIT = 6
    ABORT = 7
    CHECKPOINT = 8
    # durable coverage: one shard's sync completed; everything this shard
    # logged before this record is durably in the index itself
    SYNC_MARK = 9


#: Kinds that carry index work and therefore live in the per-shard
#: partition index.  Control records (COMMIT/ABORT/CHECKPOINT/SYNC_MARK)
#: are consulted through their own append-time indexes instead.
OP_KINDS: frozenset[RecordKind] = frozenset({
    RecordKind.OP_INSERT, RecordKind.OP_DELETE, RecordKind.KEY_ADD,
    RecordKind.KEY_REMOVE, RecordKind.PAGE_FORMAT,
})


@dataclass
class LogRecord:
    lsn: int
    xid: int
    kind: RecordKind
    payload: bytes
    shard: int = 0
    token: int = 0

    def serialized_size(self) -> int:
        return _FRAME.size + len(self.payload)

    def serialize(self) -> bytes:
        return _FRAME.pack(self.lsn, self.xid, int(self.kind), self.shard,
                           self.token, len(self.payload)) + self.payload

    @classmethod
    def deserialize(cls, blob: bytes, offset: int = 0) -> "LogRecord":
        lsn, xid, kind, shard, token, plen = _FRAME.unpack_from(blob, offset)
        start = offset + _FRAME.size
        return cls(lsn, xid, RecordKind(kind), bytes(blob[start:start + plen]),
                   shard=shard, token=token)


class StableLog:
    """Append-only log with LSNs, byte accounting, and partition indexes.

    Three indexes are maintained *at append time* so recovery never pays
    a full re-scan per worker:

    * a per-shard list of op records (``records_for``), LSN-ordered by
      construction;
    * the last :data:`RecordKind.SYNC_MARK` per shard
      (``last_sync_mark``) — the durable coverage bound the redo test
      compares against;
    * the set of xids with a COMMIT record (``committed_xids``) — the
      redo-winners set.
    """

    def __init__(self):
        self._records: list[LogRecord] = []
        self._next_lsn = 1
        self.bytes_written = 0
        self.forces = 0
        self._by_shard: dict[int, list[LogRecord]] = {}
        self._marks: dict[int, LogRecord] = {}
        self._committed: set[int] = set()

    def append(self, xid: int, kind: RecordKind, payload: bytes, *,
               shard: int = 0, token: int = 0) -> int:
        record = LogRecord(self._next_lsn, xid, kind, payload,
                           shard=shard, token=token)
        self._records.append(record)
        self._next_lsn += 1
        self.bytes_written += record.serialized_size()
        self._index(record)
        return record.lsn

    def _index(self, record: LogRecord) -> None:
        if record.kind in OP_KINDS:
            self._by_shard.setdefault(record.shard, []).append(record)
        elif record.kind == RecordKind.SYNC_MARK:
            self._marks[record.shard] = record
        elif record.kind == RecordKind.COMMIT:
            self._committed.add(record.xid)

    def force(self) -> None:
        """Durability barrier (commit-time log force)."""
        self.forces += 1

    def records(self, from_lsn: int = 1) -> Iterator[LogRecord]:
        for record in self._records:
            if record.lsn >= from_lsn:
                yield record

    # -- partition-aware iteration ------------------------------------------

    def records_for(self, shard: int,
                    from_lsn: int = 1) -> list[LogRecord]:
        """Op records of *shard* with ``lsn >= from_lsn``, in LSN order.

        Served from the append-time partition index: a bisect and one
        slice of the partition, independent of the full log volume — the
        point of building the index eagerly.
        """
        partition = self._by_shard.get(shard, [])
        return partition[bisect_left(partition, from_lsn, key=_LSN):]

    def split_for(self, shard: int, before: Callable[[LogRecord], bool],
                  from_lsn: int = 1) -> tuple[int, list[LogRecord]]:
        """Cut :meth:`records_for` at the first record *before* rejects:
        returns the accepted prefix's length and the rest.

        *before* must be monotone along the partition (true on a prefix,
        false from there on) — it is binary-searched, so the prefix is
        counted by its index and never visited or copied.
        """
        partition = self._by_shard.get(shard, [])
        start = bisect_left(partition, from_lsn, key=_LSN)
        cut = bisect_left(partition, True, lo=start,
                          key=lambda record: not before(record))
        return cut - start, partition[cut:]

    def shards(self) -> list[int]:
        """Shards that logged at least one op record."""
        return sorted(self._by_shard)

    def partition_sizes(self) -> dict[int, int]:
        return {shard: len(records)
                for shard, records in self._by_shard.items()}

    def last_sync_mark(self, shard: int) -> LogRecord | None:
        """The shard's most recent durable SYNC_MARK, or ``None``.

        Every op record of *shard* older than this mark was made durable
        in the index by a completed sync — the redo test elides them.
        """
        return self._marks.get(shard)

    def committed_xids(self) -> set[int]:
        """Xids whose COMMIT record reached the log (the redo winners)."""
        return set(self._committed)

    def __len__(self) -> int:
        return len(self._records)

    def last_lsn(self) -> int:
        return self._next_lsn - 1

    def truncate_before(self, lsn: int) -> None:
        """Discard records below *lsn* (a completed checkpoint)."""
        if lsn > self._next_lsn:
            raise WALError(f"truncate beyond end of log ({lsn})")
        self._records = [r for r in self._records if r.lsn >= lsn]
        self._by_shard = {}
        self._marks = {}
        self._committed = set()
        for record in self._records:
            self._index(record)

    def count(self, kind: RecordKind) -> int:
        return sum(1 for r in self._records if r.kind == kind)

    def bytes_of(self, kind: RecordKind) -> int:
        return sum(r.serialized_size() for r in self._records
                   if r.kind == kind)
