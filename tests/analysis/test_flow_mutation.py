"""Mutation self-tests for the flow engine, against the real source.

Each test seeds one protocol bug into a copy of a production module,
runs the one flow rule that owns that discipline, and demands the
finding — with a concrete witness path — comes back.  This is the
engine's ground truth: if a refactor ever blinds a rule, the mutant
stops being caught and the suite says so.
"""

import ast
import re
from pathlib import Path

from repro.analysis.flow.rules import (
    LatchAcrossBlockingPathRule,
    NoteBeforeDirtyOnPathRule,
    PinLeakOnPathRule,
    SplitLockOrderRule,
    WriteWithoutDirtyOnPathRule,
)
from repro.analysis.lint import lint_paths

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
BTREE_SRC = SRC / "core" / "btree_base.py"
CONCURRENCY_SRC = SRC / "core" / "concurrency.py"


def lint_mutant(tmp_path, mutant_source, rule, filename="mutant.py"):
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(mutant_source)
    return lint_paths([path], [rule])


def extract_method(source, name):
    """One method from *source*, re-wrapped in a stub class.  Linting the
    extraction alone strips the surrounding file's interprocedural
    summaries, so sibling helpers that happen to reach dirty evidence
    (``_ensure_peer_path`` marks peers dirty while healing) stop
    vouching for the path under test."""
    tree = ast.parse(source)
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == name)
    return "class T:\n    " + ast.get_source_segment(source, fn) + "\n"


def witness_notes(violation):
    return [note for _, note in violation.witness]


def test_deleted_finally_unpin_is_caught_as_r011(tmp_path):
    """Empty out ``close_clean``'s finally: the meta pin now leaks on
    every exit and R011 must say so, naming the pin and the exit."""
    source = BTREE_SRC.read_text()
    mutant = source.replace(
        """            meta.store_freelist(self.file.freelist.entries())
            self.file.mark_dirty(mbuf)
        finally:
            self.file.unpin(mbuf)""",
        """            meta.store_freelist(self.file.freelist.entries())
            self.file.mark_dirty(mbuf)
        finally:
            pass""")
    assert mutant != source, "mutation site moved; update the self-test"
    report = lint_mutant(tmp_path, mutant, PinLeakOnPathRule())
    flagged = [v for v in report.violations if v.rule_id == "R011"]
    assert flagged, report.render_text()
    v = flagged[0]
    assert "'mbuf'" in v.message
    assert "pin 'mbuf'" in witness_notes(v)
    assert any("still held" in n for n in witness_notes(v))


def test_dropped_mark_dirty_is_caught_as_r012(tmp_path):
    """Drop ``close_clean``'s dirty-mark: the freelist snapshot it just
    stored into the meta page now reaches the exit on a clean buffer."""
    source = BTREE_SRC.read_text()
    mutant = source.replace(
        """            meta.store_freelist(self.file.freelist.entries())
            self.file.mark_dirty(mbuf)""",
        """            meta.store_freelist(self.file.freelist.entries())""")
    assert mutant != source, "mutation site moved; update the self-test"
    report = lint_mutant(tmp_path, mutant, WriteWithoutDirtyOnPathRule())
    flagged = [v for v in report.violations if v.rule_id == "R012"]
    assert flagged, report.render_text()
    v = flagged[0]
    assert any("mutation" in n for n in witness_notes(v))
    assert not any("dirty evidence" in n for n in witness_notes(v))


def test_reordered_note_before_dirty_is_caught_as_r015(tmp_path):
    """Move ``note_insert`` ahead of the dirty-mark in ``_insert_run``:
    the decoded-node restamp now runs on a path whose buffer is still
    clean.  The method is linted in extraction (see
    :func:`extract_method`) because inside its own file the preceding
    ``_ensure_peer_path`` call legitimately carries dirty evidence; the
    extraction keeps its package, where R015 applies."""
    source = extract_method(BTREE_SRC.read_text(), "_insert_run")
    assert lint_mutant(tmp_path, source, NoteBeforeDirtyOnPathRule(),
                       "core/mutant.py").ok
    mutant = source.replace(
        """                        view.insert_item(slot, item, node=node)
                        self._dirty(buf)
                        node.note_insert(buf, slot, key)""",
        """                        view.insert_item(slot, item, node=node)
                        node.note_insert(buf, slot, key)
                        self._dirty(buf)""")
    assert mutant != source, "mutation site moved; update the self-test"
    report = lint_mutant(tmp_path, mutant, NoteBeforeDirtyOnPathRule(),
                         "core/mutant.py")
    flagged = [v for v in report.violations if v.rule_id == "R015"]
    assert flagged, report.render_text()
    v = flagged[0]
    assert "note_insert" in v.message
    assert any("note_insert" in n for n in witness_notes(v))


def test_swallowed_latch_release_is_caught_as_r014(tmp_path):
    """Replace ConcurrentTree.lookup's finally-release with a swallowing
    handler: the read latch leaks on both the normal return and the
    swallowed-exception path."""
    source = CONCURRENCY_SRC.read_text()
    mutant = source.replace(
        """        self.latches.acquire_read(TREE_LATCH_PAGE)
        try:
            return self.tree.lookup(value)
        finally:
            self.latches.release(TREE_LATCH_PAGE)""",
        """        self.latches.acquire_read(TREE_LATCH_PAGE)
        try:
            return self.tree.lookup(value)
        except Exception:
            return None""")
    assert mutant != source, "mutation site moved; update the self-test"
    report = lint_mutant(tmp_path, mutant, LatchAcrossBlockingPathRule())
    flagged = [v for v in report.violations if v.rule_id == "R014"]
    assert flagged, report.render_text()
    v = flagged[0]
    assert "still held" in v.message
    assert any("acquire" in n for n in witness_notes(v))


def test_deleted_split_lock_acquisition_is_caught_as_r006(tmp_path):
    """Strip ``split_lock.acquire`` from the real ConcurrentTree: every
    split-capable call now runs under a bare write latch, and R006 must
    flag each one with the path that took the latch."""
    source = CONCURRENCY_SRC.read_text()
    mutant = re.sub(r"^\s*self\.split_lock\.acquire\(self\.latches\)\n",
                    "", source, flags=re.M)
    assert mutant != source, "mutation site moved; update the self-test"
    report = lint_mutant(tmp_path, mutant, SplitLockOrderRule())
    flagged = [v for v in report.violations if v.rule_id == "R006"]
    # both ConcurrentTree.insert and ConcurrentTree.delete lose the lock
    assert len(flagged) >= 2, report.render_text()
    for v in flagged:
        assert "acquire write latch" in witness_notes(v)
        assert any("may split" in n for n in witness_notes(v))


def test_deleted_finally_release_is_caught_as_r014(tmp_path):
    """Rewrite ConcurrentTree.lookup's try/finally into straight-line
    code: an exception from the lookup now leaves with the read latch
    held."""
    source = CONCURRENCY_SRC.read_text()
    mutant = source.replace(
        """        self.latches.acquire_read(TREE_LATCH_PAGE)
        try:
            return self.tree.lookup(value)
        finally:
            self.latches.release(TREE_LATCH_PAGE)""",
        """        self.latches.acquire_read(TREE_LATCH_PAGE)
        result = self.tree.lookup(value)
        self.extra_bookkeeping(value)
        self.latches.release(TREE_LATCH_PAGE)
        return result""")
    assert mutant != source, "mutation site moved; update the self-test"
    report = lint_mutant(tmp_path, mutant, LatchAcrossBlockingPathRule())
    flagged = [v for v in report.violations if v.rule_id == "R014"]
    assert flagged, report.render_text()
    v = flagged[0]
    assert "exception edge" in v.message
    assert "acquire read latch" in witness_notes(v)
    assert "exception raised" in witness_notes(v)
