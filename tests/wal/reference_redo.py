"""The per-record redo ``repro.wal.parallel`` used to be, kept as the
reference its cut-and-run replacement is compared against.

No binary search and no batches: the plan is every record of every
partition, each one is put to the redo test on its own, and each one
owed is redone with one ``insert`` / ``delete`` and, for a duplicate,
one ``lookup`` — slow and obviously right.  The signatures are the
product's, so a test can stand these in for ``partition_records`` and
``replay_partition`` and run the rest of the pipeline (sweep, owner
threads, completion sync) unchanged.
"""

from __future__ import annotations

from itertools import groupby

from repro.errors import DuplicateKeyError, KeyNotFoundError, WALError
from repro.wal import RecordKind, covered_by_mark, decode_op
from repro.wal.parallel import ShardPlan


def reference_plan(log, shards, *, from_lsn=1):
    """The plan without the cut: nothing is counted unseen."""
    return {shard: ShardPlan(0, log.records_for(shard, from_lsn))
            for shard in shards}


def reference_redo_record(tree, record, stats) -> None:
    if record.kind == RecordKind.OP_INSERT:
        key, tid = decode_op(record.payload, with_tid=True)
        value = tree.codec.decode(key)
        try:
            tree.insert(value, tid)
            stats.applied += 1
            return
        except DuplicateKeyError:
            pass
        existing = tree.lookup(value)
        if existing == tid:
            stats.out_of_order += 1
            return
        raise WALError(
            f"redo insert of {key.hex()} conflicts: index maps it to "
            f"{existing}, log says {tid}")
    elif record.kind == RecordKind.OP_DELETE:
        key, _ = decode_op(record.payload, with_tid=False)
        try:
            tree.delete(tree.codec.decode(key))
            stats.applied += 1
        except KeyNotFoundError:
            stats.out_of_order += 1


def reference_replay_partition(tree, records, committed, mark, stats, *,
                               key_order_runs: bool = False) -> None:
    """One record at a time, in LSN order.

    With *key_order_runs* the owed records are still redone singly but
    in the order the product's batches apply them — each maximal stretch
    of one kind stably sorted by key — which is the order page bytes
    depend on (a leaf's line table records insertion order).
    """
    owed = []
    for record in records:
        stats.records += 1
        stats.visited += 1
        if covered_by_mark(record, mark):
            stats.elided += 1
        elif record.xid not in committed:
            stats.skipped_uncommitted += 1
        else:
            owed.append(record)
    if key_order_runs:
        owed = [record
                for _kind, run in groupby(owed, key=lambda r: r.kind)
                for record in sorted(
                    run, key=lambda r: decode_op(r.payload, False)[0])]
    for record in owed:
        reference_redo_record(tree, record, stats)
