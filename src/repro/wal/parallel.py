"""Parallel partitioned WAL replay that costs what the crash lost.

ERMIA/CoroBase recover by partitioning the log by independent domain
(file or OID) and replaying partitions on a worker pool; Lomet's
idempotence discipline adds a *redo test* so records whose effects are
already durable are skipped rather than re-applied.  This module is the
same shape over this repo's machinery:

* **Partition domain = shard.**  Each shard of a
  :class:`~repro.shard.engine.ShardedEngine` owns its own engine, tree,
  and sync-token arithmetic, so shard partitions share no state and can
  replay concurrently.  A shard has exactly one partition: its op
  records in LSN order.
* **Worker pool = the shard owner threads.**  Partitions are submitted
  through :meth:`~repro.shard.workers.ShardWorkerPool.submit`, so shard
  *i*'s redo runs on the same single thread that owns every other touch
  of shard *i*'s engine — the FIFO-partition discipline is preserved
  by construction and replay needs no latching.
* **Redo test = sync-token comparison.**  Every record carries the
  shard's sync token captured at append time; the shard's last durable
  :data:`~repro.wal.log.RecordKind.SYNC_MARK` carries its post-sync
  token.  A record from a strictly earlier sync window
  (:func:`~repro.storage.sync.token_older`), or from the mark's own
  window but appended before the mark
  (:func:`~repro.storage.sync.tokens_match` + LSN), was covered by a
  completed sync — its effect is durably in the index — and is
  **elided**.
* **The plan starts where the redo test flips.**  A shard's tokens
  never go backwards along its partition (the counter only advances,
  even across crashes), so the covered records are a *prefix* of it.
  :func:`partition_records` finds the prefix's end by binary search and
  plans only what follows: the prefix is counted by its index, never
  visited, and replay costs the uncovered tail, not the log's lifetime.
* **Redo a run, not a record.**  The tail is re-executed one maximal
  stretch of same-kind records at a time through ``insert_many`` /
  ``delete_many`` — one descent and one peer-path heal per leaf-run
  instead of per record.  A kind change ends a run and a run is applied
  in stable key order, so per-key LSN order (all a redo stream must
  preserve) survives.  Re-execution is idempotent (duplicate inserts and
  missing deletes are detected and counted as ``out_of_order``), so
  replay converges under repeated partial redo.

Only logical records replay.  Physical (ARIES/IM-style) logging
survives in :mod:`repro.wal.physical` as the Section 4 *volume*
comparison; nothing redoes its records.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from operator import attrgetter
from time import perf_counter
from typing import NamedTuple, Sequence

from ..errors import CrashError, WALError
from ..errors import DuplicateKeyError, KeyNotFoundError
from ..obs import get_registry, get_trace
from ..storage.sync import token_older, tokens_match
from .log import LogRecord, RecordKind, StableLog
from .logical import decode_op


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

@dataclass
class PartitionStats:
    """Redo outcome of one shard's partition."""

    shard: int
    records: int = 0               # the partition's length
    visited: int = 0               # of which planned: past the covered
                                   # prefix, looked at one by one
    applied: int = 0               # re-executed against the tree
    elided: int = 0                # covered by the shard's SYNC_MARK
                                   # (winner or loser: durable either way)
    out_of_order: int = 0          # state already ahead of the record
                                   # (duplicate insert / missing delete)
    skipped_uncommitted: int = 0   # xid never committed (redo losers)
    seconds: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class GroupRedoStats:
    """One partitioned replay pass over a group's log."""

    mode: str
    partitions: list[PartitionStats] = field(default_factory=list)
    wall_seconds: float = 0.0
    crashed_shards: list[int] = field(default_factory=list)

    def _sum(self, attr: str) -> int:
        return sum(getattr(p, attr) for p in self.partitions)

    @property
    def records(self) -> int:
        return self._sum("records")

    @property
    def applied(self) -> int:
        return self._sum("applied")

    @property
    def elided(self) -> int:
        return self._sum("elided")

    @property
    def out_of_order(self) -> int:
        return self._sum("out_of_order")

    @property
    def ok(self) -> bool:
        return not self.crashed_shards and all(p.ok for p in self.partitions)

    def errors(self) -> list[PartitionStats]:
        return [p for p in self.partitions if not p.ok]

    def for_shard(self, shard: int) -> list[PartitionStats]:
        return [p for p in self.partitions if p.shard == shard]


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------

class ShardPlan(NamedTuple):
    """One shard's share of the replay plan."""

    covered: int                   # length of the prefix its mark covers
    records: list[LogRecord]       # the rest of its partition, LSN order


def partition_records(log: StableLog, shards: Sequence[int], *,
                      from_lsn: int = 1) -> dict[int, ShardPlan]:
    """Build the replay plan: each shard's partition, cut where the redo
    test flips.

    Coverage is monotone along a shard's LSN-ordered partition — its
    tokens never go backwards (:func:`~repro.storage.sync.token_older`)
    and within the mark's own window the LSN decides — so the records
    :func:`covered_by_mark` covers are a prefix, and the log finds its
    end by binary search.  Cost per shard: the search plus the uncovered
    tail, whatever the log's length.
    """
    plan: dict[int, ShardPlan] = {}
    for shard in shards:
        mark = log.last_sync_mark(shard)
        plan[shard] = ShardPlan(*log.split_for(
            shard, partial(covered_by_mark, mark=mark), from_lsn))
    return plan


def covered_by_mark(record: LogRecord, mark: LogRecord | None) -> bool:
    """The Lomet-style redo test: is this record's effect already
    durable under the shard's last completed sync?

    True when the record's token is from a strictly earlier sync window
    than the mark's, or from the mark's own window but appended before
    the mark (the sync counter only advances when a split occurred, so
    one window can span several syncs — the LSN disambiguates).
    """
    if mark is None:
        return False
    if token_older(record.token, mark.token):
        return True
    return tokens_match(record.token, mark.token) and record.lsn < mark.lsn


# ----------------------------------------------------------------------
# one partition's redo
# ----------------------------------------------------------------------

def _redo_run(tree, kind: RecordKind, run: list[LogRecord],
              stats: PartitionStats) -> None:
    """Re-execute one stretch of same-kind records as one batch — the
    only code that turns a log record into a tree call.

    The batch is *attempted*, never probed with a lookup first: reads
    skip the Section 3.5.1 first-insert check, so a probe would find an
    effect a torn sync already persisted and skip the record *without
    healing the leaf's peer path* — leaving the key descent-reachable
    but invisible to scans.  ``insert_many`` / ``delete_many`` run the
    check once per leaf-run before searching it, so replaying onto
    already-redone state repairs the chain as a side effect; they apply
    every key they can and name the rest by position.
    """
    decode = tree.codec.decode
    stale: tuple[int, ...] = ()
    if kind == RecordKind.OP_INSERT:
        ops = [decode_op(r.payload, with_tid=True) for r in run]
        try:
            tree.insert_many([(decode(key), tid) for key, tid in ops])
        except DuplicateKeyError as exc:
            stale = exc.positions
        for pos in stale:
            key, tid = ops[pos]
            existing = tree.lookup(decode(key))
            if existing != tid:
                raise WALError(
                    f"redo insert of {key.hex()} conflicts: index maps it "
                    f"to {existing}, log says {tid}")
    elif kind == RecordKind.OP_DELETE:
        try:
            tree.delete_many([
                decode(decode_op(r.payload, with_tid=False)[0])
                for r in run])
        except KeyNotFoundError as exc:
            stale = exc.positions
    else:
        return
    stats.out_of_order += len(stale)
    stats.applied += len(run) - len(stale)


def replay_partition(tree, records: Sequence[LogRecord],
                     committed: set[int], mark: LogRecord | None,
                     stats: PartitionStats) -> None:
    """Redo one LSN-ordered partition against one shard's member tree:
    records *mark* covers are elided, losers (xid not in *committed*)
    are skipped, and what is left re-executes a run at a time — each
    maximal stretch of same-kind records is one :func:`_redo_run`, so a
    key's insert, delete and re-insert stay in three runs in LSN order.
    """
    stats.records += len(records)
    stats.visited += len(records)
    owed: list[LogRecord] = []
    for record in records:
        if covered_by_mark(record, mark):
            stats.elided += 1
        elif record.xid not in committed:
            stats.skipped_uncommitted += 1
        else:
            owed.append(record)
    for kind, run in groupby(owed, key=attrgetter("kind")):
        _redo_run(tree, kind, list(run), stats)


# ----------------------------------------------------------------------
# the group replay engine
# ----------------------------------------------------------------------

def replay_group(log: StableLog, tree, *, parallel: bool = True,
                 shards: Sequence[int] | None = None) -> GroupRedoStats:
    """Partitioned redo of *log* against the sharded index *tree*.

    Plans each shard's uncovered tail (through the log's append-time
    partition index, :func:`partition_records`) and replays the tails —
    on the shard owner threads of a temporary
    :class:`~repro.shard.workers.ShardWorkerPool` when *parallel*,
    inline in shard order when not (the serial reference the
    equivalence tests compare against: identical plan and redo test, no
    overlap).  A shard whose redo succeeded ends with a completion sync,
    the single durability point of its replayed state.  Replay appends
    nothing to the log.

    Failure semantics mirror the group's everywhere else: a shard that
    crashes mid-replay, or whose log contradicts its index, stops there
    unsynced (recorded in ``crashed_shards`` and the partition errors)
    while sibling shards replay to completion.  A second replay over the
    crash's persisted subset converges — the redo test plus idempotent
    re-execution make repeated partial redo safe.
    """
    mode = "parallel" if parallel else "serial"
    started = perf_counter()
    group = tree.group
    targets = list(shards) if shards is not None \
        else list(range(len(tree.trees)))
    plan = partition_records(log, targets)
    committed = log.committed_xids()

    out = GroupRedoStats(mode=mode, partitions=[
        PartitionStats(shard=shard) for shard in targets])
    crashed: list[int] = []
    crashed_lock = threading.Lock()
    reg = get_registry()
    h_partition = reg.histogram("wal.replay.partition_seconds")

    def make_job(stats: PartitionStats):
        shard = stats.shard

        def note_crash() -> None:
            with crashed_lock:
                crashed.append(shard)

        def job() -> None:
            member = tree.trees[shard]
            engine = group.shard(shard)
            if member is None or engine.dead:
                stats.error = f"shard {shard} is dead (unrecovered)"
                return
            mark = log.last_sync_mark(shard)
            covered, records = plan[shard]
            stats.records = stats.elided = covered
            part_started = perf_counter()
            try:
                replay_partition(member, records, committed, mark, stats)
            except CrashError as exc:
                stats.error = f"shard crashed mid-replay: {exc}"
                note_crash()
            except WALError as exc:
                stats.error = str(exc)
            stats.seconds = perf_counter() - part_started
            h_partition.observe(stats.seconds)
            for name in ("visited", "applied", "elided", "out_of_order",
                         "skipped_uncommitted"):
                reg.counter(f"wal.replay.{name}",
                            shard=str(shard)).inc(getattr(stats, name))
            get_trace().emit(
                "wal_partition", duration=stats.seconds,
                token=mark.token if mark is not None else None,
                shard=shard, visited=stats.visited,
                applied=stats.applied, elided=stats.elided,
                out_of_order=stats.out_of_order, ok=stats.ok)
            if stats.ok:
                # the completion sync: make this shard's replayed state
                # durable.  A failed redo gets none — its half-applied
                # state must not become the durable one.
                try:
                    engine.sync()
                except CrashError:
                    note_crash()

        return job

    jobs = {stats.shard: make_job(stats) for stats in out.partitions}
    if parallel and targets:
        from ..shard.workers import ShardWorkerPool
        with ShardWorkerPool(tree) as pool:
            waits = [(shard, *pool.submit(shard, jobs[shard]))
                     for shard in targets]
            for shard, done, errbox in waits:
                done.wait()
                if "error" in errbox:
                    raise errbox["error"]
    else:
        for shard in targets:
            jobs[shard]()

    out.crashed_shards = sorted(set(crashed))
    out.wall_seconds = perf_counter() - started
    reg.histogram("wal.replay.seconds").observe(out.wall_seconds)
    get_trace().emit("wal_replay", duration=out.wall_seconds, mode=mode,
                     partitions=len(out.partitions), applied=out.applied,
                     elided=out.elided, crashed=len(out.crashed_shards))
    return out
