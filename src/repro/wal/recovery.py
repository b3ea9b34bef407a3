"""Single-tree redo driver and the log-corruption probe (Section 4).

Logical redo re-executes the logged operations against the (self-
repairing) index; "recovery-time insertion of a second key which points to
the same record is detected and prevented" — an insert whose key already
maps to the same TID counts as ``out_of_order``, an insert whose key maps
elsewhere is an error.  The record-level work is
:func:`repro.wal.parallel.replay_partition`, the same code the group
replay runs per shard.
"""

from __future__ import annotations

from ..core.btree_base import BLinkTree
from .log import LogRecord, RecordKind, StableLog
from .parallel import PartitionStats, replay_partition


def logical_redo(log: StableLog, tree: BLinkTree, *,
                 from_lsn: int = 1,
                 mark: LogRecord | None = None) -> PartitionStats:
    """Re-execute the log's committed logical records against *tree*.

    Only operations of transactions whose COMMIT record made it into the
    log are replayed — the standard redo-winners pass.  With *mark* (a
    durable SYNC_MARK record), the Lomet-style redo test of
    :func:`repro.wal.parallel.covered_by_mark` elides records a
    completed sync already made durable.
    """
    stats = PartitionStats(shard=0)
    ops = [record for record in log.records(from_lsn)
           if record.kind in (RecordKind.OP_INSERT, RecordKind.OP_DELETE)]
    replay_partition(tree, ops, log.committed_xids(), mark, stats)
    return stats


def physical_records_containing(log: StableLog,
                                needle: bytes) -> list[LogRecord]:
    """Records whose payload contains *needle* — used to demonstrate that
    corrupted key bytes propagate into a physical log but never into a
    logical one (Section 4's fault-tolerance argument)."""
    return [record for record in log.records()
            if needle and needle in record.payload]
