"""Group-level WAL: one stable log over a sharded index.

A :class:`~repro.shard.engine.ShardedEngine` group that wants log-based
recovery (instead of, or in addition to, the paper's first-use repair)
logs every routed operation into **one** :class:`~repro.wal.log.StableLog`
tagged with the operation's shard and the shard's current sync token.
Partitioned replay then scans the log once and fans the per-shard
partitions out to the shard owner threads.

Durable coverage is recorded in the log itself: when a shard's sync
completes during :meth:`commit`, a :data:`~repro.wal.log.RecordKind.
SYNC_MARK` record is appended for that shard carrying its post-sync
token.  That mark is the redo test's comparison point — everything the
shard logged before it is durably in the index (the sync flushed every
dirty page), so replay elides it.  A shard that *crashes* during the
commit sync gets no mark: its post-mark records are exactly the redo
work recovery owes it.

The records are operation-level, over the self-recovering trees
(shadow/reorg/hybrid) — the Section 4 proposal.  The physical
(ARIES/IM-style) discipline it is compared against exists only per
tree, in :mod:`repro.wal.physical`, as the log-volume baseline.
"""

from __future__ import annotations

from ..core.keys import KeyCodec, TID
from ..errors import CrashError
from ..shard.engine import ShardedEngine, ShardedTree
from .log import RecordKind, StableLog
from .logical import encode_op


class GroupLogicalLoggingTree:
    """Logical operation logging over a sharded self-recovering index.

    Only the user-level operation is logged — the payload comes from the
    caller's arguments, never from page bytes — and splits log nothing:
    the shadow/reorg machinery makes them self-repairing (Section 4).
    """

    def __init__(self, group: ShardedEngine, tree: ShardedTree,
                 log: StableLog):
        self.group = group
        self.tree = tree
        self.log = log
        self.current_xid = 0

    @classmethod
    def create(cls, group: ShardedEngine, name: str, *,
               kind: str = "shadow", codec: str | KeyCodec = "uint32",
               log: StableLog | None = None) -> "GroupLogicalLoggingTree":
        tree = group.create_tree(kind, name, codec=codec)
        return cls(group, tree, log if log is not None else StableLog())

    def lookup(self, value):
        return self.tree.lookup(value)

    def commit(self) -> list[int]:
        """Force the COMMIT record, then sync every live shard, marking
        each completed sync in the log.

        Returns the shards that crashed during their sync (empty on a
        clean commit).  A crashed shard gets **no** SYNC_MARK — the log
        still holds its post-mark records, which is precisely what makes
        the transaction recoverable by replay even though its index
        changes never became durable.
        """
        self.log.append(self.current_xid, RecordKind.COMMIT, b"")
        self.log.force()
        crashed: list[int] = []
        for index in self.group.live_shards():
            engine = self.group.shard(index)
            try:
                engine.sync()
            except CrashError:
                crashed.append(index)
                continue
            self.log.append(0, RecordKind.SYNC_MARK, b"", shard=index,
                            token=engine.sync_state.token())
        return crashed

    def insert(self, value, tid: TID) -> None:
        key = self.tree.codec.encode(value)
        shard = self.tree.router.shard_of(key)
        self.log.append(self.current_xid, RecordKind.OP_INSERT,
                        encode_op(key, tid), shard=shard,
                        token=self.group.shard(shard).sync_state.token())
        self.tree.insert(value, tid)

    def delete(self, value) -> None:
        key = self.tree.codec.encode(value)
        shard = self.tree.router.shard_of(key)
        self.log.append(self.current_xid, RecordKind.OP_DELETE,
                        encode_op(key), shard=shard,
                        token=self.group.shard(shard).sync_state.token())
        self.tree.delete(value)
