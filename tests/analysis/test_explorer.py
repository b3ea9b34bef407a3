"""Deterministic schedule explorer: replay determinism, seed diversity,
mutation catching, stuck detection, and crash-snapshot recovery."""

# worker bodies take bare latches (no try/finally) to create schedule
# points, and the mutant tree deliberately omits the split lock
# (R014 is the path-sensitive form of the same latch discipline)
# lint: disable=R006,R014

import pytest

from repro import StorageEngine, TREE_CLASSES
from repro.core.concurrency import ConcurrentTree, LatchManager
from repro.analysis.races import (
    SCENARIOS,
    ScheduleExplorer,
    run_scenario,
)
from repro.analysis.races.runtime import race_checked
from repro.analysis.races.scenarios import ReaderVsSplitter, WriterVsWriter

from ..conftest import tid_for


# ---------------------------------------------------------------------------
# the controller itself
# ---------------------------------------------------------------------------

def test_single_worker_runs_to_completion():
    ran = []
    explorer = ScheduleExplorer(seed=0)
    result = explorer.run([("only", lambda: ran.append(True))])
    assert ran == [True]
    assert result.ok
    assert result.decisions and set(result.decisions) == {"only"}


def test_workers_interleave_at_schedule_points():
    """Two workers taking read latches interleave: the decision sequence
    must mix both names (one worker never runs to completion before the
    other starts)."""
    latches = LatchManager()

    def op(page):
        def body():
            for _ in range(5):
                latches.acquire_read(page)
                latches.release(page)
        return body

    result = ScheduleExplorer(seed=3).run([("a", op(1)), ("b", op(2))])
    assert result.ok
    first_a, last_a = (result.decisions.index("a"),
                       len(result.decisions) - 1
                       - result.decisions[::-1].index("a"))
    assert any(d == "b" for d in result.decisions[first_a:last_a]), \
        "scheduler never interleaved the workers"


def test_same_seed_same_decisions():
    def make_ops():
        latches = LatchManager()

        def op(page):
            def body():
                for _ in range(4):
                    latches.acquire_read(page)
                    latches.release(page)
            return body
        return [("a", op(1)), ("b", op(2))]

    first = ScheduleExplorer(seed=11).run(make_ops())
    second = ScheduleExplorer(seed=11).run(make_ops())
    assert first.decisions == second.decisions


def test_different_seeds_explore_different_interleavings():
    def make_ops():
        latches = LatchManager()

        def op(page):
            def body():
                for _ in range(6):
                    latches.acquire_read(page)
                    latches.release(page)
            return body
        return [("a", op(1)), ("b", op(2))]

    runs = {tuple(ScheduleExplorer(seed=s).run(make_ops()).decisions)
            for s in range(6)}
    assert len(runs) > 1, "every seed produced the identical schedule"


def test_worker_exception_becomes_finding():
    def boom():
        raise ValueError("deliberate")

    result = ScheduleExplorer(seed=0).run([("boom", boom)])
    assert not result.ok
    (finding,) = result.findings
    assert finding.kind == "exception"
    assert "deliberate" in finding.message


def test_contended_latch_resolves_cooperatively():
    """A writer and a reader on the same page: the loser parks at a
    ``*_wait`` point and the schedule still drains both workers."""
    latches = LatchManager()
    done = []

    def writer():
        latches.acquire_write(1)
        latches.release(1)
        done.append("w")

    def reader():
        latches.acquire_read(1)
        latches.release(1)
        done.append("r")

    result = ScheduleExplorer(seed=2).run([("w", writer), ("r", reader)])
    assert result.ok
    assert sorted(done) == ["r", "w"]


def test_step_cap_reports_stuck():
    latches = LatchManager()
    latches.acquire_write(9)   # the main thread holds it; never released

    def blocked():
        latches.acquire_read(9)

    try:
        result = ScheduleExplorer(seed=0, max_steps=50).run(
            [("blocked", blocked)])
        assert not result.ok
        assert any(f.kind == "stuck" for f in result.findings)
    finally:
        latches.release(9)


# ---------------------------------------------------------------------------
# scenarios under the explorer
# ---------------------------------------------------------------------------

def test_scenario_run_is_deterministic():
    a = run_scenario(ReaderVsSplitter("shadow"), seed=4)
    b = run_scenario(ReaderVsSplitter("shadow"), seed=4)
    assert a.decisions == b.decisions
    assert a.steps == b.steps


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_clean_under_two_seeds(name):
    for seed in (0, 1):
        run = run_scenario(SCENARIOS[name](), seed=seed)
        assert run.ok, "\n".join(
            f"[{f.kind}] {f.message}" for f in run.findings)
        assert run.steps > 50, "scenario degenerated to a trivial schedule"


def test_crash_snapshots_taken_and_verified():
    run = run_scenario(ReaderVsSplitter("shadow"), seed=0, crash_rate=0.05)
    assert run.snapshots > 0, "crash injection sampled no schedule points"
    assert run.ok


# ---------------------------------------------------------------------------
# mutation self-test: the explorer catches the deleted split lock
# ---------------------------------------------------------------------------

class _SplitLockFreeTree(ConcurrentTree):
    """ConcurrentTree.insert with the split-lock acquisition deleted."""

    def insert(self, value, tid):
        self.latches.acquire_write(0)
        try:
            self.tree.insert(value, tid)
        finally:
            self.latches.release(0)


def test_explorer_catches_deleted_split_lock():
    """Counterpart of the R006 static self-test: drive the mutant through
    the explorer with the runtime checker installed; the split that runs
    without the split lock must surface as a finding."""
    with race_checked():
        engine = StorageEngine.create(page_size=512, seed=7)
        inner = TREE_CLASSES["shadow"].create(engine, "ix", codec="uint32")
        # build the committed base through the *correct* protocol, then
        # hand the file to the mutant for the raced phase
        good = ConcurrentTree(inner)
        for i in range(0, 192, 2):
            good.insert(i, tid_for(i))
        engine.sync()
        tree = _SplitLockFreeTree(inner)

        def writer():
            for i in range(1, 192, 2):
                tree.insert(i, tid_for(i))

        def reader():
            for probe in range(0, 80, 2):
                tree.lookup(probe)

        result = ScheduleExplorer(seed=0).run(
            [("writer", writer), ("reader", reader)])
    assert not result.ok
    assert any("split lock" in f.message for f in result.findings), \
        [f.message for f in result.findings]


# ---------------------------------------------------------------------------
# satellite: writer vs. writer (delete racing a split) via the explorer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["shadow", "reorg", "hybrid", "normal"])
def test_writer_vs_writer_delete_races_split(kind):
    """A deleter and a split-forcing inserter, driven through enumerated
    interleavings rather than raw threads: final content must be exactly
    (committed − deleted) ∪ inserted under every explored schedule."""
    for seed in (0, 3):
        run = run_scenario(WriterVsWriter(kind), seed=seed, crash_rate=0.0)
        assert run.ok, "\n".join(
            f"[{f.kind}] {f.message}" for f in run.findings)
        # the two writers really interleaved (the split lock serializes
        # the splits, not the whole operations)
        assert {"inserter", "deleter"} <= set(run.decisions)
