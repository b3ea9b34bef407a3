"""Parallel partitioned WAL replay with sync-token redo elision.

ERMIA/CoroBase recover by partitioning the log by independent domain
(file or OID) and replaying partitions on a worker pool; Lomet's
idempotence discipline adds a *redo test* so records whose effects are
already durable are skipped rather than re-applied.  This module is the
same shape over this repo's machinery:

* **Partition domain = shard.**  Each shard of a
  :class:`~repro.shard.engine.ShardedEngine` owns its own engine, tree,
  and sync-token arithmetic, so shard partitions share no state and can
  replay concurrently.  Within a shard, records are further split by
  key range: operations on disjoint ranges commute, so the sub-lists
  can replay back-to-back instead of interleaved in global LSN order —
  per-key order (all a redo stream must preserve) survives because the
  key-range rule sends every record of one key to the same sub-list.
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
  **elided**.  Only the post-mark tail is re-executed, and logical
  re-execution is idempotent (duplicate inserts and missing deletes are
  detected and counted as ``out_of_order``), so replay converges under
  repeated partial redo.

Only logical records replay.  Physical (ARIES/IM-style) logging
survives in :mod:`repro.wal.physical` as the Section 4 *volume*
comparison; nothing redoes its records.
"""

from __future__ import annotations

import struct
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

from ..errors import CrashError, WALError
from ..errors import DuplicateKeyError, KeyNotFoundError
from ..obs import get_registry, get_trace
from ..storage.sync import token_older, tokens_match
from .log import LogRecord, RecordKind, StableLog
from .logical import decode_op

_OPREC = struct.Struct("<H")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

@dataclass
class PartitionStats:
    """Redo outcome of one (shard, key-range) partition."""

    shard: int
    subpart: int
    records: int = 0               # records scanned in this partition
    applied: int = 0               # re-executed against the tree
    elided: int = 0                # covered by the shard's SYNC_MARK
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

def record_key(record: LogRecord) -> bytes | None:
    """The index key a logical record operates on (``None`` for any
    other kind)."""
    if record.kind in (RecordKind.OP_INSERT, RecordKind.OP_DELETE):
        (klen,) = _OPREC.unpack_from(record.payload, 0)
        return record.payload[2: 2 + klen]
    return None


def _key_int(key: bytes) -> int:
    return int.from_bytes(key[:8].ljust(8, b"\x00"), "big")


def key_range_bounds(records: Sequence[LogRecord],
                     subparts: int) -> list[int] | None:
    """Quantile split points over the partition's *observed* keys.

    A fixed prefix split would waste sub-partitions on workloads that
    occupy a sliver of the key space (every uint32 key shares a zero
    32-bit prefix), so the ranges adapt: the distinct keys this
    partition actually logged are split into *subparts* equal-count
    contiguous ranges.  Returns ``None`` (everything to sub-list 0)
    when there are fewer distinct keys than ranges.
    """
    if subparts <= 1:
        return None
    keys = sorted({_key_int(k) for r in records
                   if (k := record_key(r)) is not None})
    if len(keys) < subparts:
        return None
    return [keys[len(keys) * i // subparts] for i in range(1, subparts)]


def subpart_of(key: bytes | None, subparts: int,
               bounds: list[int] | None = None) -> int:
    """Key-range rule: which contiguous sub-range *key* belongs to,
    given the split points of :func:`key_range_bounds`.  Key-stable by
    construction — the bounds are fixed for the whole plan, so every
    record of one key lands in the same sub-list and per-key LSN order
    survives.  Keyless records go to range 0."""
    if subparts <= 1 or key is None or bounds is None:
        return 0
    return bisect_right(bounds, _key_int(key))


def partition_records(log: StableLog, shards: Sequence[int], *,
                      subparts: int = 1, from_lsn: int = 1) \
        -> dict[int, list[list[LogRecord]]]:
    """Build the replay plan: ``{shard: [sub-list, ...]}``.

    Uses the log's append-time per-shard index, so the cost is the sum
    of the *requested* partitions' lengths — a replay of one shard never
    pays for the whole log.
    """
    plan: dict[int, list[list[LogRecord]]] = {}
    for shard in shards:
        records = list(log.records_for(shard, from_lsn))
        bounds = key_range_bounds(records, subparts)
        sub_lists: list[list[LogRecord]] = [[] for _ in range(subparts)]
        for record in records:
            sub_lists[subpart_of(record_key(record), subparts,
                                 bounds)].append(record)
        plan[shard] = sub_lists
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

def _redo_logical(tree, record: LogRecord, stats: PartitionStats) -> None:
    if record.kind == RecordKind.OP_INSERT:
        key, tid = decode_op(record.payload, with_tid=True)
        value = tree.codec.decode(key)
        # attempt the insert rather than probing with a lookup first:
        # reads skip the Section 3.5.1 first-insert check, so a probe
        # would find an effect a torn sync already persisted and skip
        # the record *without healing the leaf's peer path* — leaving
        # the key descent-reachable but invisible to scans.  The insert
        # runs the check before its duplicate search, so replaying onto
        # already-redone state repairs the chain as a side effect.
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


def replay_partition(tree, records: Sequence[LogRecord],
                     committed: set[int], mark: LogRecord | None,
                     stats: PartitionStats) -> None:
    """Redo one LSN-ordered partition against one shard's member tree:
    losers (xid not in *committed*) are skipped, records *mark* covers
    are elided, the rest re-execute."""
    for record in records:
        stats.records += 1
        if record.xid not in committed:
            stats.skipped_uncommitted += 1
            continue
        if covered_by_mark(record, mark):
            stats.elided += 1
            continue
        _redo_logical(tree, record, stats)


# ----------------------------------------------------------------------
# the group replay engine
# ----------------------------------------------------------------------

def replay_group(log: StableLog, tree, *, parallel: bool = True,
                 subparts: int = 1,
                 shards: Sequence[int] | None = None) -> GroupRedoStats:
    """Partitioned redo of *log* against the sharded index *tree*.

    Scans the log once (through its append-time partition index),
    builds per-shard key-range partitions, and replays them — on the
    shard owner threads of a temporary
    :class:`~repro.shard.workers.ShardWorkerPool` when *parallel*,
    inline in shard order when not (the serial reference the
    equivalence tests compare against: identical partitioning and redo
    test, no overlap).  Each shard ends with a completion sync, the
    single durability point of its replayed state.

    Failure semantics mirror the group's everywhere else: a shard that
    crashes mid-replay stops its own partitions (recorded in
    ``crashed_shards`` and the partition errors) while sibling shards
    replay to completion.  A second replay over the crash's persisted
    subset converges — the redo test plus idempotent re-execution make
    repeated partial redo safe.
    """
    mode = "parallel" if parallel else "serial"
    started = perf_counter()
    group = tree.group
    targets = list(shards) if shards is not None \
        else list(range(len(tree.trees)))
    plan = partition_records(log, targets, subparts=max(subparts, 1))
    committed = log.committed_xids()

    out = GroupRedoStats(mode=mode)
    shard_stats: dict[int, list[PartitionStats]] = {}
    for shard in targets:
        shard_stats[shard] = [PartitionStats(shard=shard, subpart=i)
                              for i in range(len(plan[shard]))]
        out.partitions.extend(shard_stats[shard])

    crashed: list[int] = []
    crashed_lock = threading.Lock()
    reg = get_registry()
    h_partition = reg.histogram("wal.replay.partition_seconds")

    def make_job(shard: int):
        label = str(shard)
        m_applied = reg.counter("wal.replay.applied", shard=label)
        m_elided = reg.counter("wal.replay.elided", shard=label)
        m_ooo = reg.counter("wal.replay.out_of_order", shard=label)

        def job() -> None:
            member = tree.trees[shard]
            engine = group.shard(shard)
            mark = log.last_sync_mark(shard)
            dead_reason: str | None = None
            if member is None or engine.dead:
                dead_reason = f"shard {shard} is dead (unrecovered)"
            for stats, records in zip(shard_stats[shard], plan[shard]):
                if dead_reason is not None:
                    stats.error = dead_reason
                    continue
                part_started = perf_counter()
                try:
                    replay_partition(member, records, committed, mark,
                                     stats)
                except CrashError as exc:
                    stats.error = f"shard crashed mid-replay: {exc}"
                    dead_reason = f"shard {shard} crashed mid-replay"
                    with crashed_lock:
                        crashed.append(shard)
                except WALError as exc:
                    stats.error = str(exc)
                stats.seconds = perf_counter() - part_started
                h_partition.observe(stats.seconds)
                m_applied.inc(stats.applied)
                m_elided.inc(stats.elided)
                m_ooo.inc(stats.out_of_order)
                get_trace().emit(
                    "wal_partition", duration=stats.seconds,
                    token=mark.token if mark is not None else None,
                    shard=shard, subpart=stats.subpart,
                    applied=stats.applied, elided=stats.elided,
                    out_of_order=stats.out_of_order, ok=stats.ok)
            if dead_reason is None:
                # the completion sync: make this shard's replayed state
                # durable (and append-able as a future SYNC_MARK point)
                try:
                    engine.sync()
                except CrashError:
                    with crashed_lock:
                        crashed.append(shard)

        return job

    jobs = {shard: make_job(shard) for shard in targets}
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
