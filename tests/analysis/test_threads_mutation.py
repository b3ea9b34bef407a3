"""Mutation self-tests for R016–R020: each rule must catch a designed
concurrency defect injected into the *real* ``repro.shard`` source —
with a concrete thread-role on the finding and a witness path — and
the pristine tree must stay clean.  This is the evidence the analyzer
finds the bug class it claims to find, not just its synthetic shape."""

import shutil
from pathlib import Path

from repro.analysis.lint import lint_paths
from repro.analysis.threads import threads_rules
from repro.analysis.threads.rules import (
    BlockingUnderLockRule,
    CheckThenActRule,
    ConditionWaitLoopRule,
    InconsistentLocksetRule,
    UnjoinedThreadRule,
)

SHARD_SRC = Path(__file__).resolve().parents[2] / "src" / "repro" / "shard"

#: the shutdown join in ShardWorkerPool.close — moved or deleted by two
#: of the mutants below
JOIN_BLOCK = """\
        # join outside the lock — a blocking wait under the lifecycle
        # lock would stall every concurrent submitter for the full
        # drain (and close() never needs the lock again)
        for thread in self._threads:
            thread.join(timeout=30)"""


def mutate(tmp_path, filename: str, old: str, new: str) -> Path:
    """Copy the real shard package, apply one textual mutation, return
    the mutated file (the package siblings ride along so thread-role
    inference still sees the spawns)."""
    pkg = tmp_path / "shard"
    pkg.mkdir()
    for path in SHARD_SRC.glob("*.py"):
        shutil.copy(path, pkg / path.name)
    target = pkg / filename
    source = target.read_text()
    assert source.count(old) == 1, \
        f"mutation anchor not unique/found in {filename}"
    target.write_text(source.replace(old, new))
    return target


def findings(path, rules):
    return lint_paths([path], rules).violations


def the_finding(path, rules, rule_id):
    got = findings(path, rules)
    matching = [v for v in got if v.rule_id == rule_id]
    assert matching, f"{rule_id} did not fire on the mutant"
    return matching[0]


# ---------------------------------------------------------------------------
# R016 — drop the lock around note_op's crash-window write
# ---------------------------------------------------------------------------

def test_r016_catches_unlocked_crash_window_write(tmp_path):
    target = mutate(
        tmp_path, "scheduler.py",
        "            with self._lock:\n"
        "                self.crash_windows[shard_index] = self.window + 1",
        "            self.crash_windows[shard_index] = self.window + 1")
    v = the_finding(target, [InconsistentLocksetRule()], "R016")
    assert "crash_windows" in v.message
    assert "'shard-worker'" in v.message and "'caller'" in v.message
    notes = [n for _, n in v.witness]
    # the witness derives the worker role from the real spawn
    assert any("spawns" in n for n in notes)
    assert any("crash_windows" in n for n in notes)


# ---------------------------------------------------------------------------
# R017 — move the shutdown join inside the lifecycle lock
# ---------------------------------------------------------------------------

def test_r017_catches_join_under_lifecycle_lock(tmp_path):
    target = mutate(
        tmp_path, "workers.py", JOIN_BLOCK,
        "            for thread in self._threads:\n"
        "                thread.join(timeout=30)")
    v = the_finding(target, [BlockingUnderLockRule()], "R017")
    assert "Thread.join()" in v.message
    assert "ShardWorkerPool._lifecycle" in v.message


# ---------------------------------------------------------------------------
# R018 — delete the shutdown join entirely
# ---------------------------------------------------------------------------

def test_r018_catches_never_joined_workers(tmp_path):
    target = mutate(tmp_path, "workers.py", JOIN_BLOCK, "")
    v = the_finding(target, [UnjoinedThreadRule()], "R018")
    assert "'shard-worker'" in v.message
    assert "ShardWorkerPool._threads" in v.message
    assert any("spawns" in n for _, n in v.witness)


# ---------------------------------------------------------------------------
# R019 — turn the barrier's locked store into a racy check-then-act
# ---------------------------------------------------------------------------

def test_r019_catches_racy_crash_window_update(tmp_path):
    target = mutate(
        tmp_path, "scheduler.py",
        "            with self._lock:\n"
        "                self.crash_windows[index] = window",
        "            if index not in self.crash_windows \\\n"
        "                    or self.crash_windows[index] < window:\n"
        "                self.crash_windows[index] = window")
    v = the_finding(target, [CheckThenActRule()], "R019")
    assert "crash_windows" in v.message
    notes = [n for _, n in v.witness]
    assert any("branch test reads" in n for n in notes)
    assert any("governed write" in n for n in notes)


# ---------------------------------------------------------------------------
# R020 — park the worker on a bare Condition.wait
# ---------------------------------------------------------------------------

def test_r020_catches_bare_wait_in_worker_loop(tmp_path):
    target = mutate(
        tmp_path, "workers.py",
        "    def _worker_loop(self, shard_index: int) -> None:\n"
        "        q = self._queues[shard_index]\n"
        "        while True:",
        "    def _worker_loop(self, shard_index: int) -> None:\n"
        "        q = self._queues[shard_index]\n"
        "        ready = threading.Condition()\n"
        "        with ready:\n"
        "            if q.empty():\n"
        "                ready.wait(0.01)\n"
        "        while True:")
    v = the_finding(target, [ConditionWaitLoopRule()], "R020")
    assert "'shard-worker'" in v.message
    assert "predicate loop" in v.message


# ---------------------------------------------------------------------------
# pristine source stays clean
# ---------------------------------------------------------------------------

def test_pristine_shard_package_is_clean():
    report = lint_paths([SHARD_SRC], threads_rules())
    assert report.ok, report.render_text()
