"""What the seven workloads share: engines with known disks, samples,
the crash/restart phase and the public counters.

Device model (fixed): page reads and writes are instantaneous, the
analogue of an OS cache hit (``read_latency = write_latency = 0``).  The
embedded, restart and WAL workloads also run with ``sync_latency = 0``,
so they measure the program's CPU cost; the two served workloads pay
``SERVED_SYNC_LATENCY`` per engine sync, one fsync-class barrier.
Nothing else sleeps.
"""

from __future__ import annotations

import random
from collections import Counter
from statistics import median
from time import perf_counter
from types import SimpleNamespace

from repro.core import TID
from repro.core.keys import TID_SIZE
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.shard import RecoveryOrchestrator, ShardedEngine
from repro.storage import CrashOnNthSync, StorageEngine

from ..clock import Clock, Segment
from ..oracle import Tally, lost_acked_keys

INDEX = "ix"

#: uint32 key + TID: the live user bytes one index entry stands for
ENTRY_BYTES = 4 + TID_SIZE

SERVED_SYNC_LATENCY = 0.001

#: first queries timed per restart phase (each costs a millisecond or
#: two), and how many share one pair of calibrations
TTFQ_REPS = 40
TTFQ_GROUP = 5

#: full recoveries timed per restart phase, however short the budget
MIN_RECOVERIES = 3


def fresh_registry() -> None:
    """Give the state about to be built its own metrics registry, so
    counter deltas belong to it alone and earlier states can be freed."""
    set_registry(MetricsRegistry())


def tid_for(key: int) -> TID:
    return TID(1 + (key >> 8), key & 0xFF)


def jittered(base: int, seed: int) -> int:
    """*base* plus up to 2%, drawn from the seed: input sizes belong to
    the seed like the key streams do, so no two seeds build byte-identical
    indexes."""
    return base + random.Random(seed * 1_000_003 + base).randrange(base // 50)


def make_engines(n: int, page_size: int, seed: int):
    """``ShardedEngine.create``'s engines, built over disk dicts the
    harness keeps so it can snapshot and rewind stable storage."""
    disks: list[dict] = [{} for _ in range(n)]
    engines = [StorageEngine(page_size=page_size,
                             seed=seed * 7919 + 31 * i + 1, disks=disks[i])
               for i in range(n)]
    return engines, disks


def snapshot(disks: list[dict]) -> list[dict]:
    return [{name: disk.snapshot() for name, disk in shard.items()}
            for shard in disks]


def restore(disks: list[dict], snaps: list[dict]) -> None:
    for shard, snap in zip(disks, snaps):
        for name, disk in shard.items():
            disk.restore(snap[name])


def crash_discarding_unflushed(group: ShardedEngine) -> None:
    """Kill every shard at its next sync and keep none of that sync's
    pages: the durable state is exactly what earlier syncs flushed."""
    for engine in group.shards:
        engine.crash_policy = CrashOnNthSync(1, keep=0)
    crashed = group.sync_all()
    if sorted(crashed) != list(range(len(group))):
        raise RuntimeError(f"only shards {crashed} crashed")


def index_bytes(group: ShardedEngine) -> int:
    """Size of the index files of every shard."""
    return sum(engine.open_file(INDEX).n_pages * engine.page_size
               for engine in group.shards)


def new_state(**fields) -> SimpleNamespace:
    """A workload state: the fields every workload fills plus its own.
    ``layer`` collects per-layer metrics as phases produce them."""
    return SimpleNamespace(layer={}, index_bytes=0, live_entries=0,
                           checkpoint=None, tally=Tally(), **fields)


def read_counters(disks: list[dict]) -> Counter:
    """Every public counter, summed over label sets: the metrics
    registry plus the simulated disks' I/O statistics."""
    out: Counter = Counter()
    for key, value in get_registry().snapshot()["counters"].items():
        out[key.split("[", 1)[0]] += value
    for shard in disks:
        for disk in shard.values():
            out["disk.reads"] += disk.stats.reads
            out["disk.writes"] += disk.stats.writes
            out["disk.bytes_written"] += disk.stats.bytes_written
    return out


class Samples:
    """What one phase measured, already speed-normalised."""

    def __init__(self) -> None:
        self.rates: list[tuple[int, float, float]] = []  # ops, norm s, wall s
        self.op_us: list[float] = []
        self.commit_ms: list[float] = []
        self.ttfq_ms: list[float] = []
        self.recover_ms: list[float] = []
        self.raw_ttfq_ms: list[float] = []
        self.raw_recover_ms: list[float] = []
        self.writes = 0                 # user entries written
        self.shard_ops: Counter = Counter()

    def add_segment(self, ops: int, segment: Segment, latencies,
                    commits=()) -> None:
        """*ops* client operations completed in *segment*, with the
        raw (seconds) latency of each and of each durability point."""
        self.add_rate(ops, segment.wall, segment.scale)
        self.add_latencies(latencies, segment.scale)
        ms = segment.scale * 1e3
        self.commit_ms.extend([lat * ms for lat in commits])

    def add_rate(self, ops: int, wall: float, scale: float) -> None:
        self.rates.append((ops, wall * scale, wall))

    def add_latencies(self, latencies, scale: float) -> None:
        us = scale * 1e6
        self.op_us.extend([lat * us for lat in latencies])

    @property
    def ops(self) -> int:
        return sum(ops for ops, _, _ in self.rates)

    def ops_per_s(self) -> float:
        return median(ops / norm for ops, norm, _ in self.rates)

    def raw_ops_per_s(self) -> float:
        return median(ops / wall for ops, _, wall in self.rates)


class Workload:
    """One workload: a seeded initial state, a closed-loop segment, and
    a restart at the end.  Subclasses set the class attributes and
    implement the four methods."""

    name = ""
    why = ""
    #: share of ``--seconds`` spent in steady-state segments; the rest
    #: goes to the restart phase
    ops_share = 0.6
    #: steady-state segments after which :func:`checkpoint` fixes the
    #: state the restart phase measures (None: the final state)
    checkpoint_at: int | None = None
    #: segments of the traced run's untraced, counted phase (fixed, so
    #: per-op counts repeat exactly) and of its span-recorded phase
    counted_segments = 20
    traced_segments = 5

    def setup(self, seed: int):
        raise NotImplementedError

    def segment(self, st, samples: Samples, clock: Clock) -> None:
        raise NotImplementedError

    def counted_pass(self, st) -> dict[str, float]:
        """The **P** metrics: exact call counts over fixed slices."""
        raise NotImplementedError

    def finish(self, st, samples: Samples, clock: Clock,
               budget_s: float) -> None:
        """Final scan against the model, then the restart phase (which
        a *budget_s* of 0 cuts to the minimum the traced run needs)."""
        raise NotImplementedError

    def teardown(self, st) -> None:
        """Stop whatever threads the state started."""


def checkpoint(st) -> None:
    """Fix the state the restart phase and ``space_amp`` are measured
    on.  Called between segments, when every write is acknowledged and
    synced: the disks then hold exactly what a crash that discards the
    next unflushed writes would leave.  Taken after a fixed number of
    segments, the state depends on the seed and not on how many more
    segments the machine's speed lets the run fit in."""
    durable = st.models[0].durable
    probe = list(durable)[len(durable) // 2]
    st.checkpoint = (snapshot(st.disks), probe, durable[probe])
    st.index_bytes = index_bytes(st.group)
    st.live_entries = sum(len(model.live) for model in st.models)


def restart_phase(st, samples: Samples, clock: Clock,
                  budget_s: float) -> None:
    """Crash with every unflushed write discarded, then restart over
    and over from the checkpointed disks.

    ``ttfq_ms``: restore → ``RecoveryOrchestrator(admit_immediately=
    True)`` → first lookup answered correctly.  ``recover_ms``: restore →
    the default stop-the-world ``RecoveryOrchestrator()`` until the index
    is repaired and durable.  A recovery whose report is not ``ok`` is
    counted as failed and its timing discarded.  Last, the disks as the
    final crash left them are recovered once more and scanned against
    what was acknowledged durable.
    """
    group, disks, tally, layer = st.group, st.disks, st.tally, st.layer
    crash_discarding_unflushed(group)
    crashed = snapshot(disks)
    snaps, probe, expected = st.checkpoint
    deadline = perf_counter() + budget_s
    quick = budget_s <= 0      # the traced run only needs the spans

    def first_queries():
        out = []
        for _ in range(TTFQ_GROUP):
            restore(disks, snaps)
            started = perf_counter()
            _, report = RecoveryOrchestrator(
                admit_immediately=True).recover(group, INDEX)
            answer = report.heal.tree.lookup(probe) if report.ok else None
            out.append((report.ok and answer == expected,
                        perf_counter() - started))
        return out

    for _ in range(1 if quick else TTFQ_REPS // TTFQ_GROUP):
        answers, segment = clock.measure(first_queries)
        for ok, elapsed in answers:
            tally.attempt()
            if not ok:
                tally.fail("failed_recovery")
                continue
            samples.ttfq_ms.append(elapsed * 1e3 * segment.scale)
            samples.raw_ttfq_ms.append(elapsed * 1e3)

    def full_recovery():
        started = perf_counter()
        recovered, report = RecoveryOrchestrator().recover(group, INDEX)
        return recovered, report, perf_counter() - started

    done = 0
    while done < (1 if quick else MIN_RECOVERIES) \
            or perf_counter() < deadline:
        restore(disks, snaps)
        (_, report, elapsed), segment = clock.measure(full_recovery)
        done += 1
        tally.attempt()
        if not report.ok:
            tally.fail("failed_recovery")
            continue
        ms = 1e3 * segment.scale
        samples.recover_ms.append(elapsed * ms)
        samples.raw_recover_ms.append(elapsed * 1e3)
        note_sweep(report, ms, layer)
        layer["core.repairs_per_recovery"] = report.total_repairs
        layer["shard.reopen_ms_max"] = ms * max(
            r.restart_seconds for r in report.shards)

    if samples.recover_ms:
        layer["shard.sweep_ms"] = median(samples.recover_ms)

    restore(disks, crashed)
    recovered, report = RecoveryOrchestrator().recover(group, INDEX)
    tally.attempt()
    if not report.ok:
        tally.fail("failed_recovery")
        return
    tree = recovered.open_tree(INDEX)
    layer["core.height"] = max(t.height for t in tree.trees)
    layer["oracle.lost_acked_keys"] = lost_acked_keys(
        st.models, tree.range_scan(), tally)


def note_sweep(report, ms: float, layer: dict) -> None:
    """Per-shard repair-drive costs of one stop-the-world recovery, in
    normalised milliseconds (``ms`` = 1e3 × the segment's scale)."""
    drives = [r.drive_seconds for r in report.shards]
    layer["shard.drive_ms_sum"] = ms * sum(drives)
    layer["shard.drive_ms_max"] = ms * max(drives)
