"""Unit tests for the path-sensitive flow rules R006, R007 and
R011–R015: a violating and a conforming sample per rule, the samples
of the pattern rules the flow rules retired, witness-path contents,
pragma suppression, the shared-analysis cache, and the CLI surface
(``--rules`` / ``--list-rules`` / ``--sarif``)."""

import json
import textwrap

import pytest

from repro.analysis.flow import analysis_for, flow_rules
from repro.analysis.flow.rules import (
    LatchAcrossBlockingPathRule,
    NoteBeforeDirtyOnPathRule,
    PinLeakOnPathRule,
    UseAfterUnpinRule,
    WriteWithoutDirtyOnPathRule,
)
from repro.analysis.lint import FileContext, lint_paths
from repro.tools.lint import main as lint_main


def run(tmp_path, source, rules, filename="mod.py"):
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([path], rules)


def rule_ids(report):
    return [v.rule_id for v in report.violations]


def notes(violation):
    return [note for _, note in violation.witness]


# ---------------------------------------------------------------------------
# R011 — pin leak on some path
# ---------------------------------------------------------------------------

def test_r011_flags_leak_on_one_branch_with_witness(tmp_path):
    report = run(tmp_path, """
        def bad(file, page, cond):
            buf = file.pin(page)
            if cond:
                return None
            file.unpin(buf)
    """, [PinLeakOnPathRule()])
    assert rule_ids(report) == ["R011"]
    v = report.violations[0]
    assert v.line == 3  # anchored at the pin site
    # the witness shows the concrete path: pin, then the branch
    # decision that leads to the leaking return
    assert "pin 'buf'" in notes(v)
    assert any("'cond' is True" in n for n in notes(v))
    assert "unpin 'buf'" not in notes(v)


def test_r011_flags_swallowing_handler_leg(tmp_path):
    report = run(tmp_path, """
        def bad(file, page, op):
            buf = file.pin(page)
            try:
                op()
            except ValueError:
                return None
            file.unpin(buf)
    """, [PinLeakOnPathRule()])
    # two leaking legs: the swallowed-ValueError return and the
    # uncaught-exception edge — both anchored at the pin
    assert set(rule_ids(report)) == {"R011"}
    assert all(v.line == 3 for v in report.violations)


def test_r011_accepts_finally_and_both_branch_release(tmp_path):
    report = run(tmp_path, """
        def good(file, page, op):
            buf = file.pin(page)
            try:
                return op(buf)
            finally:
                file.unpin(buf)

        def also_good(file, page, cond):
            buf = file.pin(page)
            if cond:
                file.unpin(buf)
                return None
            file.unpin(buf)
    """, [PinLeakOnPathRule()])
    assert report.ok


def test_r011_accepts_guarded_sentinel_release(tmp_path):
    # the buf-is-None sentinel idiom: nullability refinement must prune
    # the impossible arm of the guarded finally
    report = run(tmp_path, """
        def good(file, pages, op):
            buf = None
            try:
                for page in pages:
                    if buf is not None:
                        file.unpin(buf)
                        buf = None
                    buf = file.pin(page)
                    op(buf)
            finally:
                if buf is not None:
                    file.unpin(buf)
    """, [PinLeakOnPathRule()])
    assert report.ok


def test_r011_refines_a_counter_guard_like_a_flag(tmp_path):
    # the move-loop idiom: from the first move the held pin is ours, and
    # ``if hops:`` guards its release as ``if owned:`` would
    source = """
        def moves(self, buf, targets):
            hops = 0
            try:
                for target in targets:
                    tbuf = self.file.pin(target)
                    if hops:
                        self.file.unpin(buf)
                    buf = tbuf
                    hops += 1
                    self.step(target)
            except BaseException:
                if hops:
                    self.file.unpin(buf)
                raise
            return buf
    """
    assert run(tmp_path, source, [PinLeakOnPathRule()]).ok
    leaky = source.replace("""                if hops:
                    self.file.unpin(buf)
                raise""", "                raise")
    report = run(tmp_path, leaky, [PinLeakOnPathRule()])
    assert [(v.rule_id, v.line) for v in report.violations] == [("R011", 6)]


def test_r011_accepts_ownership_transfer(tmp_path):
    report = run(tmp_path, """
        def good(file, page):
            buf = file.pin(page)
            return buf

        def also_good(file, page, path):
            buf = file.pin(page)
            path.append(buf)
    """, [PinLeakOnPathRule()])
    assert report.ok


# ---------------------------------------------------------------------------
# R012 — mutation without dirty evidence on the path
# ---------------------------------------------------------------------------

def test_r012_flags_unmarked_branch_with_witness(tmp_path):
    report = run(tmp_path, """
        def bad(self, buf, view, cond):
            if cond:
                view.insert_item(0, b"k")
            else:
                view.insert_item(1, b"k")
                self.file.mark_dirty(buf)
    """, [WriteWithoutDirtyOnPathRule()])
    assert rule_ids(report) == ["R012"]
    v = report.violations[0]
    assert v.line == 4  # the mutation on the unmarked arm
    assert any("mutation" in n for n in notes(v))
    assert not any("dirty evidence" in n for n in notes(v))


def test_r012_accepts_dirty_after_the_join(tmp_path):
    report = run(tmp_path, """
        def good(self, buf, view, cond):
            if cond:
                view.insert_item(0, b"k")
            else:
                view.insert_item(1, b"k")
            self.file.mark_dirty(buf)
    """, [WriteWithoutDirtyOnPathRule()])
    assert report.ok


def test_r012_exempts_the_page_layer(tmp_path):
    report = run(tmp_path, """
        def fine_here(self, view):
            view.insert_item(0, b"k")
    """, [WriteWithoutDirtyOnPathRule()], filename="core/nodeview.py")
    assert report.ok


# ---------------------------------------------------------------------------
# R013 — use after unpin on the current path
# ---------------------------------------------------------------------------

def test_r013_flags_read_after_release_with_witness(tmp_path):
    report = run(tmp_path, """
        def bad(self, file, page):
            buf = file.pin(page)
            count = buf.data[0]
            file.unpin(buf)
            return buf.data[count]
    """, [UseAfterUnpinRule()])
    assert rule_ids(report) == ["R013"]
    v = report.violations[0]
    assert v.line == 6
    assert "unpinned at line 5" in v.message
    assert "unpin 'buf'" in notes(v)


def test_r013_tracks_derived_views(tmp_path):
    report = run(tmp_path, """
        def bad(self, file, page):
            buf = file.pin(page)
            view = NodeView(buf.data, 512)
            file.unpin(buf)
            return view.n_keys + self.count(view)
    """, [UseAfterUnpinRule()])
    assert rule_ids(report) == ["R013"]


def test_r013_accepts_use_then_release(tmp_path):
    report = run(tmp_path, """
        def good(self, file, page):
            buf = file.pin(page)
            try:
                return buf.data[0]
            finally:
                file.unpin(buf)
    """, [UseAfterUnpinRule()])
    assert report.ok


def test_r013_repin_starts_a_fresh_fact(tmp_path):
    report = run(tmp_path, """
        def good(self, file, page, other):
            buf = file.pin(page)
            file.unpin(buf)
            buf = file.pin(other)
            try:
                return buf.data[0]
            finally:
                file.unpin(buf)
    """, [UseAfterUnpinRule()])
    assert report.ok


# ---------------------------------------------------------------------------
# R014 — latch across blocking call / latch leak
# ---------------------------------------------------------------------------

def test_r014_flags_blocking_call_under_read_latch(tmp_path):
    report = run(tmp_path, """
        def bad(self):
            self.latch.acquire_read()
            self.file.sync()
            self.latch.release()
    """, [LatchAcrossBlockingPathRule()])
    # the blocking call, and the latch leaked if that call raises
    assert [(v.rule_id, v.line) for v in report.violations] \
        == [("R014", 3), ("R014", 4)]
    v = report.violations[1]
    assert any("blocking" in n for n in notes(v))


def test_r014_flags_latch_leaked_on_early_return(tmp_path):
    report = run(tmp_path, """
        def bad(self, cond):
            self.latch.acquire_read()
            if cond:
                return None
            self.latch.release()
    """, [LatchAcrossBlockingPathRule()])
    assert rule_ids(report) == ["R014"]


def test_r014_accepts_release_before_block(tmp_path):
    report = run(tmp_path, """
        def good(self):
            self.latch.acquire_read()
            n = self.view.n_keys
            self.latch.release()
            self.file.sync()
            return n
    """, [LatchAcrossBlockingPathRule()])
    assert report.ok


# ---------------------------------------------------------------------------
# R015 — cache note before the path's dirty-mark
# ---------------------------------------------------------------------------

def test_r015_flags_note_before_dirty_with_witness(tmp_path):
    report = run(tmp_path, """
        def bad(self, buf, view, key, tid):
            view.insert_item(0, key)
            self.cache.note_insert(key, tid)
            self.file.mark_dirty(buf)
    """, [NoteBeforeDirtyOnPathRule()], filename="core/mod.py")
    assert rule_ids(report) == ["R015"]
    v = report.violations[0]
    assert v.line == 4
    assert any("note_insert" in n for n in notes(v))


def test_r015_accepts_dirty_then_note(tmp_path):
    report = run(tmp_path, """
        def good(self, buf, view, key, tid):
            view.insert_item(0, key)
            self.file.mark_dirty(buf)
            self.cache.note_insert(key, tid)
    """, [NoteBeforeDirtyOnPathRule()], filename="core/mod.py")
    assert report.ok


# ---------------------------------------------------------------------------
# the samples of the retired pattern rules, judged by their successors
# ---------------------------------------------------------------------------

def sample(rule_id, lines, filename, source, id, message=None):
    """One retired sample: the successor rule, every line it must flag
    (empty for a conforming sample), and a fragment each finding's
    message must carry."""
    return pytest.param(rule_id, lines, filename, source, message, id=id)


RETIRED_SAMPLES = [
    # R001 (pin/unpin pairing) -> R011
    sample("R011", (3,), "mod.py", """
        def bad(file, page):
            buf = file.pin(page)
            first = buf.data[0]
            file.unpin(buf)
            return first
    """, id="r001_flags_unguarded_pin", message="'buf'"),
    sample("R011", (), "mod.py", """
        def good(file, page):
            buf = file.pin(page)
            try:
                return buf.data[0]
            finally:
                file.unpin(buf)
    """, id="r001_accepts_try_finally"),
    sample("R011", (), "mod.py", """
        def good(file, page):
            buf = file.pin(page)
            file.unpin(buf)
    """, id="r001_accepts_immediate_unpin"),
    sample("R011", (), "mod.py", """
        def good(file, page):
            buf = file.pin(page)
            return buf

        def also_good(file, page, path):
            buf = file.pin(page)
            path.append(PathEntry(buf))
    """, id="r001_accepts_ownership_transfer"),
    # the pin inside bad(), not good(): its exception edge and its return
    sample("R011", (10, 10), "mod.py", """
        def good(self, page):
            buf, view = self._pin(page)
            try:
                return view.n_keys
            finally:
                self._unpin(buf)

        def bad(self, page):
            buf, view = self._pin(page)
            count = view.n_keys
            self._note(count)
            return count
    """, id="r001_tracks_aliases_and_tuple_binds"),

    # R003 (mutation without a dirty-mark in scope) -> R012
    sample("R012", (3,), "mod.py", """
        def bad(self, buf, view):
            view.insert_item(0, b"key")
    """, id="r003_flags_mutator_without_dirty"),
    sample("R012", (), "mod.py", """
        def good(self, buf, view):
            view.insert_item(0, b"key")
            self.file.mark_dirty(buf)
    """, id="r003_accepts_mark_dirty_in_scope"),
    sample("R012", (), "mod.py", """
        def good(self):
            buf, view = self._alloc(1, 0)
            view.insert_item(0, b"key")
    """, id="r003_accepts_born_dirty_alloc"),
    sample("R012", (3,), "mod.py", """
        def bad(self, view, peer):
            view.right_peer = peer
    """, id="r003_flags_header_property_store"),
    sample("R012", (), "core/nodeview.py", """
        def fine_here(self, view):
            view.insert_item(0, b"key")
    """, id="r003_exempts_the_page_layer"),

    # R006 (split lock before the write latch) -> flow R006
    sample("R006", (5,), "mod.py", """
        def bad(self):
            self.latches.acquire_write(3)
            try:
                self.split_lock.acquire()
                try:
                    pass
                finally:
                    self.split_lock.release()
            finally:
                self.latches.release(3)
    """, id="r006_split_acquire_under_write_latch"),
    sample("R006", (5,), "mod.py", """
        def bad(self, value, tid):
            self.latches.acquire_write(0)
            try:
                self.tree.insert(value, tid)
            finally:
                self.latches.release(0)
    """, id="r006_split_capable_call_without_split_lock"),
    sample("R006", (8,), "mod.py", """
        def helper(self):
            self.split_lock.acquire()

        def bad(self):
            self.latches.acquire_write(1)
            try:
                self.helper()
            finally:
                self.latches.release(1)
    """, id="r006_transitive_through_local_helper"),
    sample("R006", (), "mod.py", """
        def good(self, value, tid):
            self.split_lock.acquire(self.latches)
            try:
                self.latches.acquire_write(0)
                try:
                    self.tree.insert(value, tid)
                finally:
                    self.latches.release(0)
            finally:
                self.split_lock.release()
    """, id="r006_correct_order_clean"),
    sample("R006", (), "mod.py", """
        def fine(self, items, value):
            self.latches.acquire_write(0)
            try:
                items.insert(0, value)
            finally:
                self.latches.release(0)
    """, id="r006_plain_list_insert_not_flagged"),

    # R007 (pin the child before unlatching the parent) -> flow R007
    sample("R007", (5,), "mod.py", """
        def descend(self, page):
            self.latches.acquire_read(page)
            child = self.child_of(page)
            self.latches.release(page)
            return self.file.pin(child)
    """, id="r007_unlatch_before_pin"),
    sample("R007", (), "mod.py", """
        def descend(self, page):
            self.latches.acquire_read(page)
            try:
                child = self.child_of(page)
                buf = self.file.pin(child)
            finally:
                self.latches.release(page)
            return buf
    """, id="r007_pin_then_unlatch_clean"),
    sample("R007", (), "mod.py", """
        def leaf_scan(self, page):
            buf = self.file.pin(page)
            self.file.unpin(buf)
    """, id="r007_ignores_functions_without_latches"),

    # R008 (blocking call under a read latch) -> R014
    sample("R014", (5,), "mod.py", """
        def bad(self, key):
            self.latches.acquire_read(1)
            try:
                self.engine.sync()
            finally:
                self.latches.release(1)
    """, id="r008_sync_under_read_latch"),
    # the coupled acquire, and the outer latch leaked if it raises
    sample("R014", (3, 4), "mod.py", """
        def bad(self):
            self.latches.acquire_read(1)
            self.latches.acquire_read(2)
            self.latches.release(2)
            self.latches.release(1)
    """, id="r008_read_latch_coupling_flagged"),
    sample("R014", (), "mod.py", """
        def good(self, key):
            self.latches.acquire_read(1)
            try:
                value = self.probe(key)
            finally:
                self.latches.release(1)
            self.engine.sync()
            return value
    """, id="r008_sync_after_release_clean"),

    # R009 (latch release on every exception edge) -> R014
    sample("R014", (3,), "mod.py", """
        def leaky(self, page):
            self.latches.acquire_write(page)
            self.mutate(page)
            self.more(page)
            self.latches.release(page)
    """, id="r009_no_finally"),
    sample("R014", (3,), "mod.py", """
        def leaky(self):
            self.split_lock.acquire()
            self.do_split()
            self.unrelated()
            self.split_lock.release()
    """, id="r009_split_lock_without_finally"),
    sample("R014", (), "mod.py", """
        def good(self, page):
            self.latches.acquire_write(page)
            try:
                self.mutate(page)
            finally:
                self.latches.release(page)
    """, id="r009_try_finally_clean"),
    sample("R014", (), "mod.py", """
        def touch(self, page):
            self.latches.acquire_read(page)
            self.latches.release(page)
    """, id="r009_immediate_release_clean"),
    sample("R014", (), "mod.py", """
        def good(self):
            with self.split_lock:
                self.do_split()
    """, id="r009_with_statement_clean"),
    sample("R014", (), "mod.py", """
        def bad(self, page):
            self.latches.acquire_write(page)  # lint: disable=R014
            self.mutate(page)
            self.more(page)
            self.latches.release(page)
    """, id="pragma_suppresses_latch_rule"),

    # R010's note half (note_* after the dirty-mark) -> R015
    sample("R015", (3,), "core/tree.py", """
        def insert(self, leaf, slot, key, keys):
            self.fp.note_insert(leaf.buffer, slot, key, keys)
            self._dirty(leaf.buffer)
    """, id="r010_flags_note_before_dirty"),
    sample("R015", (3,), "core/tree.py", """
        def insert(self, leaf, slot, key, keys):
            self.fp.note_insert(leaf.buffer, slot, key, keys)
    """, id="r010_flags_note_without_any_dirty"),
    sample("R015", (), "core/tree.py", """
        def delete(self, leaf, slot, keys):
            leaf.view.delete_item(slot)
            self._dirty(leaf.buffer)
            self.fp.note_delete(leaf.buffer, slot, keys)
    """, id="r010_accepts_note_after_dirty"),
    sample("R015", (3,), "storage/helper.py", """
        def touch(self, buf, keys):
            self.fp.note_insert(buf, 0, b"k", keys)
    """, id="r010_note_ordering_applies_under_storage_too"),
    sample("R015", (), "bench/driver.py", """
        def touch(self, buf, keys):
            self.fp.note_insert(buf, 0, b"k", keys)
    """, id="r010_note_ordering_ignores_other_packages"),
    sample("R015", (), "core/tree.py", """
        def insert(self, leaf, slot, key, keys):
            self.fp.note_insert(leaf.buffer, slot, key, keys)  # lint: disable=R015
    """, id="r010_pragma_suppression"),
]


@pytest.mark.parametrize("rule_id,lines,filename,source,message",
                         RETIRED_SAMPLES)
def test_retired_pattern_sample(tmp_path, rule_id, lines, filename, source,
                                message):
    """Every sample of a pattern rule the flow engine retired, unchanged:
    a violating one is flagged by the successor at exactly the expected
    lines, which include the line the pattern rule flagged, each with a
    witness; a conforming one stays clean."""
    rule = next(r for r in flow_rules() if r.rule_id == rule_id)
    report = run(tmp_path, source, [rule], filename=filename)
    assert sorted((v.rule_id, v.line) for v in report.violations) \
        == [(rule_id, line) for line in lines], report.render_text()
    assert all(v.witness for v in report.violations)
    if message is not None:
        assert all(message in v.message for v in report.violations)


# ---------------------------------------------------------------------------
# pragmas, registry, shared analysis
# ---------------------------------------------------------------------------

def test_line_pragma_suppresses_flow_finding(tmp_path):
    report = run(tmp_path, """
        def f(file, page, cond):
            buf = file.pin(page)  # lint: disable=R011
            if cond:
                return None
            file.unpin(buf)
    """, [PinLeakOnPathRule()])
    assert report.ok


def test_file_pragma_suppresses_flow_findings(tmp_path):
    report = run(tmp_path, """
        # exercises leak paths on purpose
        # lint: disable=R011

        def f(file, page, cond):
            buf = file.pin(page)
            if cond:
                return None
            file.unpin(buf)
    """, [PinLeakOnPathRule()])
    assert report.ok


def test_flow_registry_order_and_ids():
    rules = flow_rules()
    assert [r.rule_id for r in rules] == \
        ["R006", "R007", "R011", "R012", "R013", "R014", "R015"]
    assert all(r.summary for r in rules)


def test_rules_share_one_analysis_per_file(tmp_path):
    path = tmp_path / "mod.py"
    source = "def f():\n    return 1\n"
    path.write_text(source)
    ctx = FileContext(path, "mod.py", source)
    assert analysis_for(ctx) is analysis_for(ctx)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

LEAKY = """\
def f(file, page, cond):
    buf = file.pin(page)
    if cond:
        return None
    file.unpin(buf)
"""


def test_cli_rules_filter_accepts_flow_ids(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(LEAKY)
    assert lint_main([str(bad), "--rules", "R013"]) == 0
    capsys.readouterr()
    assert lint_main([str(bad), "--rules", "R011"]) == 1


def test_cli_list_rules_is_one_catalogue(capsys):
    assert lint_main(["--list-rules"]) == 0
    ids = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert ids == sorted(ids)
    assert ids == ["R002", "R004", "R005", "R006", "R007", "R010", "R011",
                   "R012", "R013", "R014", "R015", "R016", "R017", "R018",
                   "R019", "R020"]


def test_cli_json_includes_witness(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(LEAKY)
    assert lint_main([str(bad), "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    (violation,) = payload["violations"]
    steps = violation["witness"]
    assert steps and all({"line", "note"} <= set(s) for s in steps)
    assert any(s["note"] == "pin 'buf'" for s in steps)


def test_cli_sarif_output(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(LEAKY)
    assert lint_main([str(bad), "--sarif"]) == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    run_ = sarif["runs"][0]
    driver = run_["tool"]["driver"]
    assert {r["id"] for r in driver["rules"]} >= {"R002", "R011"}
    results = run_["results"]
    r011 = [r for r in results if r["ruleId"] == "R011"]
    assert r011, results
    loc = r011[0]["locations"][0]["physicalLocation"]
    assert loc["region"]["startLine"] == 2
    # the witness path rides along as relatedLocations
    related = r011[0]["relatedLocations"]
    assert any("pin 'buf'" == rl["message"]["text"] for rl in related)


def test_cli_sarif_clean_run_has_no_results(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("def f():\n    return 1\n")
    assert lint_main([str(good), "--sarif"]) == 0
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["runs"][0]["results"] == []
