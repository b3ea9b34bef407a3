"""Unit tests for the crash-safety lint: each pattern rule gets a
violating and a conforming sample, plus pragma suppression, the one-parse
lint run and the CLI front end."""

import ast
import json
import textwrap

from repro.analysis.lint import lint_paths
from repro.analysis.rules.exceptions import SwallowedErrorRule
from repro.analysis.rules.mutation import DirectDataMutationRule
from repro.analysis.rules.tokens import RawTokenComparisonRule
from repro.tools.lint import main as lint_main


def run(tmp_path, source, rules, filename="mod.py"):
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([path], rules)


def rule_ids(report):
    return [v.rule_id for v in report.violations]


# ---------------------------------------------------------------------------
# R002 — raw buf.data mutation outside the page layer
# ---------------------------------------------------------------------------

def test_r002_flags_raw_data_store(tmp_path):
    report = run(tmp_path, """
        def bad(buf):
            buf.data[0:2] = b"xx"
    """, [DirectDataMutationRule()])
    assert rule_ids(report) == ["R002"]


def test_r002_flags_pack_into(tmp_path):
    report = run(tmp_path, """
        import struct

        def bad(buf, offset):
            struct.Struct("<I").pack_into(buf.data, offset, 7)
    """, [DirectDataMutationRule()])
    assert rule_ids(report) == ["R002"]


def test_r002_exempts_the_page_layer(tmp_path):
    report = run(tmp_path, """
        def fine_here(buf):
            buf.data[0:2] = b"xx"
    """, [DirectDataMutationRule()], filename="storage/page.py")
    assert report.ok


def test_r002_allows_reads(tmp_path):
    report = run(tmp_path, """
        def good(buf):
            return buf.data[0:2]
    """, [DirectDataMutationRule()])
    assert report.ok


# ---------------------------------------------------------------------------
# R004 — raw sync-token comparisons
# ---------------------------------------------------------------------------

def test_r004_flags_raw_token_comparison(tmp_path):
    report = run(tmp_path, """
        def bad(view, token):
            return view.sync_token >= token
    """, [RawTokenComparisonRule()])
    assert rule_ids(report) == ["R004"]


def test_r004_flags_counter_comparison(tmp_path):
    report = run(tmp_path, """
        def bad(view, state):
            return view.sync_token == state.counter
    """, [RawTokenComparisonRule()])
    assert rule_ids(report) == ["R004"]


def test_r004_accepts_helper_calls(tmp_path):
    report = run(tmp_path, """
        def good(view, state, token):
            if state.is_current(view.sync_token):
                return True
            return tokens_match(view.sync_token, token)
    """, [RawTokenComparisonRule()])
    assert report.ok


def test_r004_exempts_sync_module(tmp_path):
    report = run(tmp_path, """
        def helper(self, token):
            return token < self.counter
    """, [RawTokenComparisonRule()], filename="storage/sync.py")
    assert report.ok


def test_r004_ignores_non_token_comparisons(tmp_path):
    report = run(tmp_path, """
        def good(view):
            return view.n_keys >= 4
    """, [RawTokenComparisonRule()])
    assert report.ok


# ---------------------------------------------------------------------------
# R005 — swallowed protocol errors
# ---------------------------------------------------------------------------

def test_r005_flags_bare_except(tmp_path):
    report = run(tmp_path, """
        def bad(op):
            try:
                op()
            except:
                pass
    """, [SwallowedErrorRule()])
    assert rule_ids(report) == ["R005"]


def test_r005_flags_swallowed_exception(tmp_path):
    report = run(tmp_path, """
        def bad(op):
            try:
                op()
            except Exception:
                return None
    """, [SwallowedErrorRule()])
    assert rule_ids(report) == ["R005"]


def test_r005_accepts_reraise_and_specific(tmp_path):
    report = run(tmp_path, """
        def good(op, file, buf):
            try:
                op()
            except BaseException:
                file.unpin(buf)
                raise

        def also_good(op):
            try:
                op()
            except ReproError:
                return None
    """, [SwallowedErrorRule()])
    assert report.ok


# ---------------------------------------------------------------------------
# pragmas
# ---------------------------------------------------------------------------

def test_line_pragma_suppresses_that_line_only(tmp_path):
    report = run(tmp_path, """
        def f(buf):
            buf.data[0:2] = b"xx"  # lint: disable=R002
            buf.data[2:4] = b"yy"
    """, [DirectDataMutationRule()])
    assert len(report.violations) == 1
    assert report.violations[0].line == 4


def test_file_pragma_suppresses_whole_file(tmp_path):
    report = run(tmp_path, """
        # this module pokes bytes on purpose
        # lint: disable=R002

        def f(buf):
            buf.data[0:2] = b"xx"
            buf.data[2:4] = b"yy"
    """, [DirectDataMutationRule()])
    assert report.ok


def test_pragma_for_other_rule_does_not_suppress(tmp_path):
    report = run(tmp_path, """
        def f(buf):
            buf.data[0:2] = b"xx"  # lint: disable=R012
    """, [DirectDataMutationRule()])
    assert rule_ids(report) == ["R002"]


# ---------------------------------------------------------------------------
# the repository itself, one lint run, and the CLI
# ---------------------------------------------------------------------------

def test_repository_is_lint_clean():
    """The whole catalogue — pattern, flow and thread rules — over
    ``src/``, in one run."""
    report = lint_paths(["src"])
    assert report.ok, report.render_text()


THREADED = """
import threading

class Pump{n}:
    def __init__(self):
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._loop, name="pump-0")
        self._thread.start()

    def _loop(self):
        with self._lock:
            return {n}

    def stop(self):
        self._thread.join()
"""


def test_a_lint_run_parses_each_file_once(tmp_path, monkeypatch):
    """Every rule — the thread model's package index included — reads
    the one tree the run parsed per file."""
    for package in ("alpha", "beta"):
        for n in range(3):
            path = tmp_path / package / f"mod{n}.py"
            path.parent.mkdir(exist_ok=True)
            path.write_text(THREADED.format(n=n))
    files = sorted(tmp_path.rglob("*.py"))
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, *args, **kwargs):
        parsed.append(kwargs.get("filename"))
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    report = lint_paths([tmp_path / "alpha", tmp_path / "beta"])
    assert report.files_checked == len(files) == 6
    assert len(parsed) == len(files), parsed
    # a sibling outside the run is parsed once, into the same index
    parsed.clear()
    assert lint_paths([tmp_path / "alpha" / "mod0.py"]).ok
    assert len(parsed) == 3, parsed


def test_cli_exit_codes_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(buf):\n    buf.data[0] = 1\n")
    assert lint_main([str(bad)]) == 1
    capsys.readouterr()

    assert lint_main([str(bad), "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    # a raw write outside the page layer (R002) that no path marks
    # dirty (R012): two disciplines, two findings
    assert {v["rule"] for v in payload["violations"]} \
        == {"R002", "R012"}

    good = tmp_path / "good.py"
    good.write_text("def f():\n    return 1\n")
    assert lint_main([str(good)]) == 0
    capsys.readouterr()

    # a file that does not parse is a failure, not a clean run
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert lint_main([str(broken)]) == 1
    capsys.readouterr()

    assert lint_main(["--rules", "R999"]) == 2


def test_cli_rule_subset_and_listing(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(buf):\n    buf.data[0] = 1\n")
    # R002 finding is invisible to an R005-only run
    assert lint_main([str(bad), "--rules", "R005"]) == 0
    capsys.readouterr()

    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("R002", "R004", "R005", "R010"):
        assert rule_id in out
