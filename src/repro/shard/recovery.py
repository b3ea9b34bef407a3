"""Crash recovery for a shard group.

The paper's restart story is "reopen, then repair lazily on first use".
For a group, that story splits per shard: each shard's repairs depend
only on its own durable state and its own sync tokens, so the
orchestrator runs one **stage function** per dead shard:

1. ``StorageEngine.reopen`` over the shard's durable state (a crashed
   shard re-seeds its counter; a cleanly stopped one keeps it), then the
   optional ``on_reopen`` hook — the seam where tests install crash
   policies to simulate a shard failing *again* mid-recovery, or run a
   read-only ``fsck_tree`` before any repair — then open the tree by
   meta-page kind;
2. unless admitting: **drive** the lazy repairs — a descent into every
   child slot, a walk along the leaf chain and a structural check touch
   every page the first-use detectors would examine, at a cost per page
   and not per key, so the shard is hot and verified rather than
   nominally open;
3. unless a log replay owns the durability point: sync, making the
   repairs durable.

Which steps run is one row of the stage table:

======  ======================  ====================  =====================
row     repair source           admission point       durability point
======  ======================  ====================  =====================
sweep   first-use sweep, now    after the sweep       the stage's own sync
admit   ``HealQueue``, later    before any repair     the heal's last sync
log     sweep, then log redo    after replay          replay's last sync
======  ======================  ====================  =====================

The stages run one after another on the calling thread unless two or
more shards are dead and a stage would sleep on the simulated device: a
page read or write on any row, the sync barrier on the sweep row (the
only row whose stage syncs).  Only such a wait releases the GIL, so only
then does a thread pool, one worker per dead shard, overlap anything;
for stages that are pure CPU it would add its spawn and join and nothing
else.  The log row's redo follows the same rule, counting its
completion sync.

Step 2 is the stop-the-world sweep — and the paper's whole point is that
it is optional.  With ``admit_immediately=True`` the shard rejoins the
group *cold* (time-to-first-query is the reopen cost, independent of
index size) and the sweep is handed to a background
:class:`~repro.shard.heal.HealQueue` that steps it between foreground
operations, hottest subtrees first.

A group that logged through ``repro.wal.group`` passes its
:class:`~repro.wal.log.StableLog` as ``wal``: each dead shard is swept
without syncing, then :func:`repro.wal.parallel.replay_group` redoes the
committed tail over exactly the reopened shards — on shard owner
threads when a device wait can overlap, else inline — the sync-token
redo test eliding records a completed sync already covered.

A shard that fails during its own recovery — crashing again, a refused
open, a raising hook — is isolated: its report carries the error, every
sibling's stage still runs, and the returned group keeps a dead engine
for it so a later pass can retry.  Per-shard sweep latency lands in the
``shard.recovery.*`` metrics and each shard's outcome emits a
``shard_recovery`` trace event, which says how many threads its pass
ran on; ``python -m repro.tools.stats examples/shard_group_demo.py``
renders both.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, NamedTuple

from ..errors import CrashError
from ..obs import get_registry, get_trace
from ..storage.engine import StorageEngine
from .engine import ShardedEngine, ShardedTree
from .heal import HealQueue


class _Stage(NamedTuple):
    """One row of the stage table in the module docstring."""

    mode: str       # ShardRecoveryReport.mode
    sweep: bool     # drive the first-use repairs before returning
    sync: bool      # the stage syncs them itself


def _run_inline(fn, *args) -> Future:
    """``fn(*args)`` run here and now, what it returned or raised held in
    a future exactly as a pool's ``submit`` would hand it over."""
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    # not swallowed: ``future.result()`` raises it in the caller
    except BaseException as exc:  # lint: disable=R005
        future.set_exception(exc)
    return future


_SWEEP = _Stage("sweep", sweep=True, sync=True)
_ADMIT = _Stage("admit", sweep=False, sync=False)
_LOG = _Stage("log", sweep=True, sync=False)


def _waits_on_device(engine: StorageEngine, syncs: bool) -> bool:
    """Whether a stage over *engine* sleeps on the simulated device — the
    only wait that releases the GIL for a sibling shard's stage: a page
    read or write always, the sync barrier when the stage *syncs*."""
    return bool(engine.read_latency or engine.write_latency
                or (syncs and engine.sync_latency))


@dataclass
class ShardRecoveryReport:
    """What recovering one shard cost, and whether it survived."""

    shard: int
    ok: bool = False
    error: str | None = None
    restart_seconds: float = 0.0      # reopen + tree open (the paper's
                                      # "restart cost": no log processing)
    drive_seconds: float = 0.0        # the whole sweep: repair drive,
                                      # validator and the stage's sync
    verify_seconds: float = 0.0       # of which the validator
    repairs: dict = field(default_factory=dict)
    repair_seconds: dict = field(default_factory=dict)
    keys_seen: int = 0
    mode: str = "sweep"               # "sweep", "admit", or "log"
    replay_seconds: float = 0.0       # log row: this shard's redo time


@dataclass
class GroupRecoveryReport:
    """One orchestrator pass over a group."""

    shards: list[ShardRecoveryReport]
    wall_seconds: float = 0.0
    #: threads the stages ran on: 1 when they ran on the calling thread
    max_workers: int = 1
    #: background heal state when the pass ran with ``admit_immediately``
    #: (repairs still pending); None for stop-the-world passes.  Serve
    #: traffic through ``heal.tree`` so foreground accesses feed the
    #: heal priorities and the repair log the heal drives is the one the
    #: serving handles observe.
    heal: object | None = field(default=None, repr=False)
    #: log row: the :class:`~repro.wal.parallel.GroupRedoStats` of the
    #: replay pass (partition counts, elisions, redo wall time); None
    #: for the log-less rows.
    redo: object | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.shards)

    def failed_shards(self) -> list[int]:
        return [r.shard for r in self.shards if not r.ok]

    @property
    def total_repairs(self) -> int:
        return sum(sum(r.repairs.values()) for r in self.shards)

    @property
    def time_to_first_query(self) -> float:
        """When the group could first serve: every row returns at its
        admission point, so this is the pass's wall time — the whole
        sweep on a stop-the-world pass, every crashed shard's cold reopen
        on an admit pass (their sum when they ran one after another)."""
        return self.wall_seconds


class RecoveryOrchestrator:
    """Reopens dead shards and drives per-shard repairs.

    Parameters
    ----------
    max_workers:
        The widest thread pool a pass may use when its stages wait on a
        device (module docstring); ``None`` allows one worker per dead
        shard, ``1`` runs every stage on the calling thread.
    on_reopen:
        Optional ``(shard_index, engine) -> None`` hook called right
        after a shard's engine is reopened, before any repair work — the
        seam tests use to install crash policies on recovering shards,
        and where a caller wanting a pre-repair verdict runs
        ``fsck_tree(open_tree(engine, name))``.
    admit_immediately:
        Instant restart: reopen each crashed shard cold and put it back
        in service without driving a single repair — the first-use
        checks make every page a query touches safe — and hand the
        deferred sweep to a background :class:`~repro.shard.heal.HealQueue`
        (``report.heal``), prioritized by foreground access frequency.
    wal:
        A :class:`~repro.wal.log.StableLog` the group logged through
        (see ``repro.wal.group``).  When given, recovery is log-based:
        each dead shard is swept, then the log's committed tail is
        *replayed* onto it.  Incompatible with ``admit_immediately``
        (replay must complete before the shard's state answers queries
        correctly).
    wal_mode:
        Fixed at ``"parallel-logical"``, the one redo discipline there
        is; kept as a keyword only because the frozen benchmark passes
        it, until the next benchmark revision.
    wal_subparts:
        Accepted and ignored, for the same reason: a shard replays as
        one partition (key-range sub-partitions ran back-to-back on one
        owner thread and only cost their planning).
    """

    def __init__(self, *, max_workers: int | None = None,
                 on_reopen: Callable[[int, StorageEngine], None]
                 | None = None,
                 admit_immediately: bool = False,
                 wal=None, wal_mode: str = "parallel-logical",
                 wal_subparts: int = 1):
        if wal is not None and admit_immediately:
            raise ValueError(
                "wal replay and admit_immediately are incompatible: a "
                "shard must finish redo before it can serve queries")
        if wal_mode != "parallel-logical":
            raise ValueError(
                f"unknown wal_mode {wal_mode!r}; the only redo "
                f"discipline is 'parallel-logical'")
        self.max_workers = max_workers
        self.on_reopen = on_reopen
        self.wal = wal
        self._stage = (_ADMIT if admit_immediately
                       else _LOG if wal is not None else _SWEEP)
        reg = get_registry()
        self._m_recovered = reg.counter("shard.recovery.recovered")
        self._m_failed = reg.counter("shard.recovery.failed")
        self._h_restart = reg.histogram("shard.recovery.restart_seconds")
        self._h_ttfq = reg.histogram("shard.recovery.ttfq_seconds")

    # -- public API --------------------------------------------------------

    def recover(self, group: ShardedEngine, name: str) \
            -> tuple[ShardedEngine, GroupRecoveryReport]:
        """Recover every dead shard of *group*'s index *name*.

        Returns the post-recovery group (recovered engines substituted in
        place; failed shards keep their dead engines) and the report.
        Live shards pass through untouched.

        Under ``admit_immediately`` the pass returns as soon as every
        crashed shard is reopened cold: the group serves traffic right
        away, ``report.heal`` holds the background queue still driving
        the repairs, and ``report.heal.tree`` is the serving handle
        whose accesses feed the heal priorities.
        """
        stage = self._stage
        started = perf_counter()
        engines: list[StorageEngine] = list(group.shards)
        reports = [ShardRecoveryReport(shard=i, ok=True, mode=stage.mode)
                   for i in range(len(group))]
        reopened: dict[int, object] = {}

        targets = [i for i, e in enumerate(group.shards) if e.dead]
        workers = self._threads_for([group.shard(i) for i in targets],
                                    syncs=stage.sync)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers,
                                    thread_name_prefix="shard-rec") as pool:
                futures = {
                    i: pool.submit(self._recover_shard, i, group.shard(i),
                                   name)
                    for i in targets
                }
        else:
            futures = {
                i: _run_inline(self._recover_shard, i, group.shard(i), name)
                for i in targets
            }
        for i, future in futures.items():
            engines[i], reports[i], reopened[i] = future.result()

        out_group = ShardedEngine(engines)
        out = GroupRecoveryReport(shards=reports, max_workers=workers)
        recovered = [i for i in targets if reports[i].ok]
        if stage is _LOG and recovered:
            out.redo = self._replay(
                _serving_tree(out_group, name, reopened), recovered,
                reports, group)
        for i in targets:
            self._publish(reports[i], workers)
        if stage is _ADMIT:
            serving = _serving_tree(out_group, name, reopened)
            if serving is not None:
                out.heal = HealQueue(out_group, serving, recovered,
                                     admitted_at=started)
        out.wall_seconds = perf_counter() - started
        return out_group, out

    def _threads_for(self, engines: list[StorageEngine], *,
                     syncs: bool) -> int:
        """How many threads a stage over *engines* runs on: one per
        engine (at most ``max_workers``) when two or more would run and
        one of them sleeps on the device; else 1, the calling thread —
        under the GIL a pool would add only its spawn and join to stages
        that never wait on a device."""
        workers = min(self.max_workers or len(engines), len(engines))
        if workers > 1 and any(_waits_on_device(engine, syncs)
                               for engine in engines):
            return workers
        return 1

    # -- one shard ---------------------------------------------------------

    def _recover_shard(self, index: int, dead_engine: StorageEngine,
                       name: str) -> tuple[StorageEngine,
                                           ShardRecoveryReport,
                                           object | None]:
        """The stage function: reopen, then whatever this pass's row of
        the stage table asks for.  Returns the engine the group should
        hold, the shard's report, and its open tree (None on failure).

        Under the admit row the restart cost is the paper's claim —
        control page plus meta page, independent of index size — and
        first-use checks keep the shard safe to serve while the heal
        queue drives the deferred sweep.

        The log row sweeps too: logical redo assumes a structurally
        sound tree.  A torn sync can leave keys reachable only through a
        first-use repair (a zeroed child slot, a stale dual path), and
        replay only descends the paths its own records name — it would
        sail past the damage and then *elide* the covered records that
        should have resurfaced those keys.  The sweep's fixes stay in
        the buffer pool — the replay completion sync is the single
        durability point, so a re-crash there simply repeats repair +
        redo (both idempotent).
        """
        stage = self._stage
        report = ShardRecoveryReport(shard=index, mode=stage.mode)
        started = perf_counter()
        engine = dead_engine
        tree = None
        try:
            engine = StorageEngine.reopen(dead_engine)
            if self.on_reopen is not None:
                self.on_reopen(index, engine)
            tree = _open_member_tree(engine, name)
            report.restart_seconds = perf_counter() - started
            self._h_restart.observe(report.restart_seconds)
            if stage.sweep:
                _sweep(tree, report, sync=stage.sync)
            else:
                # admitted cold: the shard answers from here on
                self._h_ttfq.observe(report.restart_seconds)
            report.ok = True
        # one shard's failure must not abort the pass and discard every
        # sibling already recovered, whatever it raised (a hook bug
        # included): record it, keep the shard gated, move on
        except Exception as exc:  # lint: disable=R005
            if isinstance(exc, CrashError):
                # the recovery incarnation itself crashed: the reopened
                # engine is dead, so returning it keeps the shard gated
                # exactly like the original dead engine did
                report.error = f"crashed during recovery: {exc}"
            else:
                report.error = f"{type(exc).__name__}: {exc}"
            if not engine.dead:
                # a refused open, a raising hook or verifier: the
                # reopened engine is *live but unverified* — returning
                # it would let ``live_shards()`` route traffic to a
                # shard marked ok=False
                engine = dead_engine
            tree = None
        return engine, report, tree

    def _replay(self, serving: ShardedTree, recovered: list[int],
                reports: list[ShardRecoveryReport],
                crashed_group: ShardedEngine):
        """Run the partitioned redo pass over the shards this pass
        reopened and fold the per-partition outcomes back into their
        reports.

        Shards that never died are current already and never see a redo
        record.  A shard that crashes again mid-replay keeps its (now
        dead) engine, and one whose redo failed without a crash gets its
        dead engine from *crashed_group* back — the reopened one is live
        but half-redone and unsynced — so either way it stays gated for
        a retry pass exactly like a sweep failure."""
        # call-time, through the module: ``repro.wal`` imports this
        # package, and span recorders patch ``replay_group`` there
        from ..wal import parallel

        # each shard's redo ends with its completion sync
        pooled = self._threads_for(
            [serving.group.shard(i) for i in recovered], syncs=True) > 1
        redo = parallel.replay_group(self.wal, serving, shards=recovered,
                                     parallel=pooled)
        for i in recovered:
            parts = redo.for_shard(i)
            errors = [p.error for p in parts if p.error is not None]
            if i in redo.crashed_shards and not errors:
                errors = ["crashed during replay sync"]
            if errors and not serving.group.shard(i).dead:
                serving.group.shards[i] = crashed_group.shard(i)
            # a fresh instance rather than mutating the one the stage
            # worker published
            reports[i] = replace(
                reports[i], ok=not errors,
                error=errors[0] if errors else None,
                replay_seconds=sum(p.seconds for p in parts))
        return redo

    def _publish(self, report: ShardRecoveryReport, threads: int) -> None:
        (self._m_recovered if report.ok else self._m_failed).inc()
        get_trace().emit("shard_recovery", shard=report.shard,
                         ok=report.ok, threads=threads,
                         duration=report.restart_seconds
                         + report.drive_seconds + report.replay_seconds,
                         verify_seconds=report.verify_seconds,
                         repairs=sum(report.repairs.values()))


def _open_member_tree(engine: StorageEngine, name: str):
    from ..core import open_tree
    return open_tree(engine, name)


def _serving_tree(group: ShardedEngine, name: str,
                  reopened: dict[int, object]) -> ShardedTree | None:
    """One :class:`ShardedTree` over the post-recovery group: the member
    trees this pass reopened (so the repair log a heal or replay drives
    is the one the serving handles observe), fresh handles for shards
    that never died, ``None`` for shards still dead.  Returns ``None``
    when every shard is dead — nothing serves, heals or replays."""
    trees: list[object | None] = []
    for i, engine in enumerate(group.shards):
        tree = reopened.get(i)
        if tree is None and not engine.dead:
            tree = _open_member_tree(engine, name)
        trees.append(tree)
    codec = next((t.codec for t in trees if t is not None), None)
    if codec is None:
        return None
    return ShardedTree(group, name, trees, codec)


def _sweep(tree, report: ShardRecoveryReport, *, sync: bool) -> None:
    """Force every lazy first-use repair of *tree* to run now, validate,
    and account for it in *report* and the per-shard
    ``shard.recovery.*`` series.

    Three walks, each for what only it can see, each O(pages):
    ``drive_repairs`` descends into every child slot (the zeroed-child
    and range-mismatch repairs fire only on a parent→child *descent*),
    then walks the leaf chain (the peer-link repairs fire only on a link
    crossing); the validator runs last, over a tree that is as repaired
    as it will get, with the post-crash relaxations (stale dual paths
    may legally survive).  It is the count-only form: nothing here reads
    a TID."""
    drive_start = perf_counter()
    report.keys_seen = tree.drive_repairs()
    verify_start = perf_counter()
    tree.verify(strict_tokens=False, require_peer_chain=False)
    report.verify_seconds = perf_counter() - verify_start
    if sync:
        tree.engine.sync()
    report.drive_seconds = perf_counter() - drive_start
    for entry in tree.repair_log:
        kind = getattr(entry.kind, "value", str(entry.kind))
        report.repairs[kind] = report.repairs.get(kind, 0) + 1
    report.repair_seconds = {
        kind: summary["sum"]
        for kind, summary in tree.repair_log.latency_summary().items()
    }
    reg = get_registry()
    label = str(report.shard)
    reg.histogram("shard.recovery.seconds",
                  shard=label).observe(report.drive_seconds)
    reg.counter("shard.recovery.repairs",
                shard=label).inc(sum(report.repairs.values()))


def recover_group(group: ShardedEngine, name: str, *,
                  parallel: bool = True,
                  admit_immediately: bool = False,
                  wal=None, wal_mode: str = "parallel-logical",
                  wal_subparts: int = 1) \
        -> tuple[ShardedEngine, GroupRecoveryReport]:
    """Convenience wrapper: recovery of a crashed group in one call
    (``parallel=False`` keeps every stage on the calling thread).
    ``admit_immediately=True`` returns the group serving cold with
    ``report.heal`` still draining repairs.
    Passing ``wal`` (the group's :class:`~repro.wal.log.StableLog`)
    switches to log-based recovery: sweep, then redo the committed tail
    (``report.redo`` carries the partition stats)."""
    orchestrator = RecoveryOrchestrator(
        max_workers=None if parallel else 1,
        admit_immediately=admit_immediately,
        wal=wal, wal_mode=wal_mode, wal_subparts=wal_subparts)
    return orchestrator.recover(group, name)
