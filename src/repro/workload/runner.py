"""Timed workload runner reproducing the paper's measurement discipline.

Table 1's footnotes define what is timed: "Only time spent in the B-link
tree access method, and in the routines that it calls, is included in
these figures.  This includes time spent doing disk I/O, but does not
include the cost of committing transactions."

So the runner accumulates wall time *around each access-method call* and
keeps sync (commit) time outside the measured window, while still issuing
syncs periodically so the sync-token machinery behaves as in production
(the reorg tree in particular needs syncs to reclaim backups).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from ..core import TREE_CLASSES
from ..core.keys import TID
from ..storage.engine import StorageEngine


@dataclass
class RunResult:
    """AM-only timing of one run."""

    kind: str
    operation: str
    n_ops: int
    am_seconds: float
    syncs: int
    splits: int
    height: int
    file_pages: int
    extra: dict = field(default_factory=dict)


@dataclass
class Series:
    """Repeated runs of one configuration."""

    results: list[RunResult]

    @property
    def mean(self) -> float:
        return statistics.fmean(r.am_seconds for r in self.results)

    @property
    def stdev(self) -> float:
        if len(self.results) < 2:
            return 0.0
        return statistics.stdev(r.am_seconds for r in self.results)

    @property
    def stdev_pct(self) -> float:
        mean = self.mean
        return 100.0 * self.stdev / mean if mean else 0.0


def _obs_extra(tree) -> dict:
    """Registry-backed per-run observations attached to the result."""
    pool = tree.file.pool
    extra = {
        "repairs": len(tree.repair_log),
        "pool_hits": pool.stats.hits,
        "pool_misses": pool.stats.misses,
        "pool_evictions": pool.stats.evictions,
    }
    latencies = tree.repair_log.latency_summary()
    if latencies:
        extra["repair_seconds"] = {
            kind: summary["sum"] for kind, summary in latencies.items()}
    return extra


def build_tree(kind: str, keys, *, page_size: int = 8192,
               codec: str = "uint32", seed: int = 0,
               sync_every: int = 1000,
               time_it: bool = True) -> tuple[RunResult, object]:
    """Build an index over *keys*, timing only the insert calls.

    Returns the timing record and the live tree (with its engine on
    ``tree.engine``) so lookup runs can reuse the built index.
    """
    engine = StorageEngine.create(page_size=page_size, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "bench", codec=codec)
    clock = time.perf_counter
    am_time = 0.0
    count = 0
    for key in keys:
        tid = TID(1 + (count >> 8), count & 0xFF)
        if time_it:
            start = clock()
            tree.insert(key, tid)
            am_time += clock() - start
        else:
            tree.insert(key, tid)
        count += 1
        if count % sync_every == 0:
            engine.sync()  # commit cost, outside the measured window
    engine.sync()
    result = RunResult(
        kind=kind, operation="insert", n_ops=count, am_seconds=am_time,
        syncs=engine.syncs_completed.value, splits=tree.splits.value,
        height=tree.height, file_pages=tree.file.n_pages,
        extra=_obs_extra(tree),
    )
    return result, tree


def run_lookups(tree, probes, *, kind: str | None = None) -> RunResult:
    """Time lookup calls only (the paper's 8,000-random-keys test)."""
    clock = time.perf_counter
    am_time = 0.0
    hits = 0
    count = 0
    for probe in probes:
        start = clock()
        found = tree.lookup(probe)
        am_time += clock() - start
        hits += found is not None
        count += 1
    return RunResult(
        kind=kind or tree.KIND, operation="lookup", n_ops=count,
        am_seconds=am_time, syncs=tree.engine.syncs_completed.value,
        splits=tree.splits.value, height=tree.height,
        file_pages=tree.file.n_pages,
        extra={"hits": hits, **_obs_extra(tree)},
    )


def repeat(make_result, repetitions: int = 3) -> Series:
    """Run ``make_result(rep_index)`` several times — the paper reports
    means of ten repetitions with stddev under 2.5 % of the mean."""
    return Series([make_result(i) for i in range(repetitions)])
